package cluster

import (
	"fmt"
	"sync"

	"github.com/c3lab/transparentedge/internal/containerd"
	"github.com/c3lab/transparentedge/internal/docker"
	"github.com/c3lab/transparentedge/internal/registry"
)

// DockerCluster adapts a single Docker engine as an edge "cluster". It
// runs at most one instance per service — the paper's Docker setup.
type DockerCluster struct {
	name     string
	engine   *docker.Engine
	upstream registry.Remote
	location Location

	mu    sync.Mutex
	specs map[string]Spec
	// answers holds each service's last non-empty Instances answer,
	// handed out again while it still holds.
	answers map[string][]Instance
}

// NewDockerCluster wraps engine as a cluster pulling from upstream.
func NewDockerCluster(name string, engine *docker.Engine, upstream registry.Remote, loc Location) *DockerCluster {
	return &DockerCluster{
		name:     name,
		engine:   engine,
		upstream: upstream,
		location: loc,
		specs:    make(map[string]Spec),
		answers:  make(map[string][]Instance),
	}
}

// Name implements Cluster.
func (d *DockerCluster) Name() string { return d.name }

// Kind implements Cluster.
func (d *DockerCluster) Kind() Kind { return Docker }

// Location implements Cluster.
func (d *DockerCluster) Location() Location { return d.location }

// CanHost implements Cluster: Docker runs any containerized service.
func (d *DockerCluster) CanHost(Spec) bool { return true }

// Engine exposes the wrapped Docker engine.
func (d *DockerCluster) Engine() *docker.Engine { return d.engine }

// HasImages implements Cluster. A store lookup takes no virtual time,
// so an image two containers share is simply looked up twice.
func (d *DockerCluster) HasImages(spec Spec) bool {
	for _, c := range spec.Containers {
		if !d.engine.Runtime().Store().HasImage(c.Image) {
			return false
		}
	}
	return true
}

// Pull implements Cluster.
func (d *DockerCluster) Pull(spec Spec) error {
	for _, ref := range spec.Images() {
		if _, err := d.engine.ImagePull(d.upstream, ref); err != nil {
			return fmt.Errorf("cluster %s: %w", d.name, err)
		}
	}
	return nil
}

// containerName builds the engine-level name of one container.
func (d *DockerCluster) containerName(svc string, c ContainerDef) string {
	return svc + "-" + c.Name
}

// Created implements Cluster.
func (d *DockerCluster) Created(name string) bool {
	d.mu.Lock()
	spec, ok := d.specs[name]
	d.mu.Unlock()
	if !ok {
		return false
	}
	for _, c := range spec.Containers {
		if d.engine.ContainerInspect(d.containerName(name, c)) == nil {
			return false
		}
	}
	return true
}

// Create implements Cluster: create (but do not start) every container,
// sharing the spec's named volumes between them.
func (d *DockerCluster) Create(spec Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	d.mu.Lock()
	if _, dup := d.specs[spec.Name]; dup {
		d.mu.Unlock()
		return fmt.Errorf("cluster %s: service %q already created", d.name, spec.Name)
	}
	d.specs[spec.Name] = spec
	d.mu.Unlock()

	labels := map[string]string{"edge.service": spec.Name}
	for k, v := range spec.Labels {
		labels[k] = v
	}
	for _, c := range spec.Containers {
		_, err := d.engine.ContainerCreate(docker.CreateOptions{
			Name:            d.containerName(spec.Name, c),
			Image:           c.Image,
			Labels:          labels,
			VolumeNames:     spec.Volumes,
			VolumeNamespace: spec.Name,
			Port:            c.Port,
		})
		if err != nil {
			d.mu.Lock()
			delete(d.specs, spec.Name)
			d.mu.Unlock()
			return fmt.Errorf("cluster %s: %w", d.name, err)
		}
	}
	return nil
}

// ScaleUp implements Cluster: start all containers of the service.
// Sidecars start first so serving containers find their shared state.
func (d *DockerCluster) ScaleUp(name string) error {
	spec, err := d.spec(name)
	if err != nil {
		return err
	}
	for _, c := range orderSidecarsFirst(spec.Containers) {
		if err := d.engine.ContainerStart(d.containerName(name, c)); err != nil {
			return fmt.Errorf("cluster %s: %w", d.name, err)
		}
	}
	return nil
}

// ScaleDown implements Cluster: stop all containers.
func (d *DockerCluster) ScaleDown(name string) error {
	spec, err := d.spec(name)
	if err != nil {
		return err
	}
	for _, c := range spec.Containers {
		if err := d.engine.ContainerStop(d.containerName(name, c)); err != nil {
			return fmt.Errorf("cluster %s: %w", d.name, err)
		}
	}
	return nil
}

// Remove implements Cluster: delete all containers and forget the spec.
func (d *DockerCluster) Remove(name string) error {
	spec, err := d.spec(name)
	if err != nil {
		return err
	}
	for _, c := range spec.Containers {
		if err := d.engine.ContainerRemove(d.containerName(name, c)); err != nil {
			return fmt.Errorf("cluster %s: %w", d.name, err)
		}
	}
	d.mu.Lock()
	delete(d.specs, name)
	d.mu.Unlock()
	return nil
}

// DeleteImages implements Cluster.
func (d *DockerCluster) DeleteImages(spec Spec) error {
	for _, ref := range spec.Images() {
		if err := d.engine.ImageRemove(ref); err != nil {
			return fmt.Errorf("cluster %s: %w", d.name, err)
		}
	}
	return nil
}

// Instances implements Cluster: one instance when every container runs
// and the serving container is ready. The one-element list is the
// service's previous answer while that still holds.
func (d *DockerCluster) Instances(name string) []Instance {
	d.mu.Lock()
	spec, ok := d.specs[name]
	d.mu.Unlock()
	if !ok {
		return nil
	}
	var serving *containerd.Container
	for _, c := range spec.Containers {
		ctr := d.engine.ContainerInspect(d.containerName(name, c))
		if ctr == nil || ctr.State() != containerd.StateRunning {
			return nil
		}
		if c.Port != 0 && !ctr.Ready() {
			return nil
		}
		if c.Port != 0 && serving == nil {
			serving = ctr
		}
	}
	if serving == nil {
		return nil
	}
	inst := Instance{Addr: serving.Addr(), Cluster: d.name}
	d.mu.Lock()
	defer d.mu.Unlock()
	if last := d.answers[name]; len(last) == 1 && last[0] == inst {
		return last
	}
	answer := []Instance{inst}
	d.answers[name] = answer
	return answer
}

func (d *DockerCluster) spec(name string) (Spec, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	spec, ok := d.specs[name]
	if !ok {
		return Spec{}, fmt.Errorf("cluster %s: service %q not created", d.name, name)
	}
	return spec, nil
}

// orderSidecarsFirst starts portless containers before serving ones.
func orderSidecarsFirst(containers []ContainerDef) []ContainerDef {
	out := make([]ContainerDef, 0, len(containers))
	for _, c := range containers {
		if c.Port == 0 {
			out = append(out, c)
		}
	}
	for _, c := range containers {
		if c.Port != 0 {
			out = append(out, c)
		}
	}
	return out
}
