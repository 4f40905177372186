package faas

import (
	"fmt"
	"strings"
	"sync"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/containerd"
	"github.com/c3lab/transparentedge/internal/registry"
)

// Cluster adapts the serverless runtime to the dispatcher's cluster
// interface, so the SDN controller deploys Wasm services exactly like
// containerized ones — the side-by-side operation the paper's future
// work asks for. Phase mapping: Pull = fetch+compile the module,
// Create = register the function (metadata only), Scale Up =
// instantiate an isolate.
type Cluster struct {
	name     string
	rt       *Runtime
	upstream registry.Remote
	resolver containerd.AppResolver
	location cluster.Location

	mu      sync.Mutex
	created map[string]cluster.Spec
	running map[string]*Instance
}

// NewCluster wraps rt as an edge cluster pulling modules from upstream;
// resolver supplies per-module request handlers.
func NewCluster(name string, rt *Runtime, upstream registry.Remote, resolver containerd.AppResolver, loc cluster.Location) *Cluster {
	return &Cluster{
		name:     name,
		rt:       rt,
		upstream: upstream,
		resolver: resolver,
		location: loc,
		created:  make(map[string]cluster.Spec),
		running:  make(map[string]*Instance),
	}
}

// Name implements cluster.Cluster.
func (c *Cluster) Name() string { return c.name }

// Kind implements cluster.Cluster.
func (c *Cluster) Kind() cluster.Kind { return "faas" }

// Location implements cluster.Cluster.
func (c *Cluster) Location() cluster.Location { return c.location }

// CanHost implements cluster.Cluster: the serverless runtime hosts
// single-function services shipped as WebAssembly modules only.
func (c *Cluster) CanHost(spec cluster.Spec) bool {
	if len(spec.Containers) != 1 {
		return false
	}
	return strings.HasSuffix(spec.Containers[0].Image, ".wasm")
}

// Runtime exposes the wrapped serverless runtime.
func (c *Cluster) Runtime() *Runtime { return c.rt }

// HasImages implements cluster.Cluster (modules play the image role).
func (c *Cluster) HasImages(spec cluster.Spec) bool {
	for _, ctr := range spec.Containers {
		if !c.rt.HasModule(ctr.Image) {
			return false
		}
	}
	return true
}

// Pull implements cluster.Cluster: download + AOT-compile the modules.
func (c *Cluster) Pull(spec cluster.Spec) error {
	for _, ref := range spec.Images() {
		if err := c.rt.Fetch(c.upstream, ref); err != nil {
			return fmt.Errorf("cluster %s: %w", c.name, err)
		}
	}
	return nil
}

// Created implements cluster.Cluster.
func (c *Cluster) Created(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.created[name]
	return ok
}

// Create implements cluster.Cluster: function registration is a pure
// metadata operation — serverless has no container to pre-create.
func (c *Cluster) Create(spec cluster.Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if !c.CanHost(spec) {
		return fmt.Errorf("cluster %s: service %q is not a single-function Wasm service", c.name, spec.Name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.created[spec.Name]; dup {
		return fmt.Errorf("cluster %s: service %q already created", c.name, spec.Name)
	}
	c.created[spec.Name] = spec
	return nil
}

// ScaleUp implements cluster.Cluster: instantiate one isolate. The
// call returns with the instance already serving — isolates have no
// separate readiness phase.
func (c *Cluster) ScaleUp(name string) error {
	c.mu.Lock()
	spec, ok := c.created[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster %s: service %q not created", c.name, name)
	}
	if _, up := c.running[name]; up {
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()

	def := spec.Containers[0]
	model, err := c.resolver.Resolve(def.Image)
	if err != nil {
		return fmt.Errorf("cluster %s: %w", c.name, err)
	}
	app := model.Instantiate(nil)
	inst, err := c.rt.Instantiate(InstanceSpec{
		Name:    name,
		Module:  def.Image,
		Handler: app.Handler,
	})
	if err != nil {
		return fmt.Errorf("cluster %s: %w", c.name, err)
	}
	c.mu.Lock()
	c.running[name] = inst
	c.mu.Unlock()
	return nil
}

// ScaleDown implements cluster.Cluster.
func (c *Cluster) ScaleDown(name string) error {
	c.mu.Lock()
	inst := c.running[name]
	delete(c.running, name)
	c.mu.Unlock()
	if inst != nil {
		inst.Stop()
	}
	return nil
}

// Remove implements cluster.Cluster: unregister the function.
func (c *Cluster) Remove(name string) error {
	if err := c.ScaleDown(name); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.created[name]; !ok {
		return fmt.Errorf("cluster %s: service %q not created", c.name, name)
	}
	delete(c.created, name)
	return nil
}

// DeleteImages implements cluster.Cluster: drop compiled modules.
func (c *Cluster) DeleteImages(spec cluster.Spec) error {
	for _, ref := range spec.Images() {
		c.rt.DropModule(ref)
	}
	return nil
}

// Instances implements cluster.Cluster.
func (c *Cluster) Instances(name string) []cluster.Instance {
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, ok := c.running[name]
	if !ok {
		return nil
	}
	return []cluster.Instance{{Addr: inst.Addr(), Cluster: c.name}}
}
