// Package docker emulates a single-node Docker Engine on top of the
// shared containerd runtime — the lightweight alternative the paper
// contrasts with Kubernetes. There is no control-plane pipeline: client
// calls translate directly into runtime operations, which is exactly why
// its scale-up stays under one second.
package docker

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/c3lab/transparentedge/internal/containerd"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/registry"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// Timing models the Docker daemon's API overhead.
type Timing struct {
	// APILatency is the per-call daemon round trip (docker CLI/SDK →
	// dockerd → containerd).
	APILatency time.Duration
	// JitterFrac scales the uniform jitter on API calls.
	JitterFrac float64
}

// DefaultTiming returns the calibrated daemon overhead.
func DefaultTiming() Timing {
	return Timing{APILatency: 6 * time.Millisecond, JitterFrac: 0.15}
}

// Engine is one Docker daemon.
type Engine struct {
	clk      *vclock.Virtual
	rng      *vclock.Rand
	rt       *containerd.Runtime
	resolver containerd.AppResolver
	timing   Timing

	mu      sync.Mutex
	volumes map[string]*containerd.Volume
}

// NewEngine returns a daemon driving the given runtime.
func NewEngine(clk *vclock.Virtual, seed int64, rt *containerd.Runtime, resolver containerd.AppResolver, timing Timing) *Engine {
	return &Engine{
		clk:      clk,
		rng:      vclock.NewRand(seed),
		rt:       rt,
		resolver: resolver,
		timing:   timing,
		volumes:  make(map[string]*containerd.Volume),
	}
}

// Runtime exposes the underlying containerd (both "clusters" in the
// evaluation share one runtime on the EGS).
func (e *Engine) Runtime() *containerd.Runtime { return e.rt }

// Host returns the host the engine publishes ports on.
func (e *Engine) Host() *netem.Host { return e.rt.Host() }

func (e *Engine) apiCall() {
	e.clk.Sleep(e.rng.Jitter(e.timing.APILatency, e.timing.JitterFrac))
}

// ImagePull fetches an image (docker pull).
func (e *Engine) ImagePull(reg registry.Remote, ref string) (time.Duration, error) {
	e.apiCall()
	return e.rt.Pull(reg, ref)
}

// ImageList returns cached image references, sorted.
func (e *Engine) ImageList() []string {
	e.apiCall()
	refs := e.rt.Store().Images()
	sort.Strings(refs)
	return refs
}

// HasImage reports whether ref is cached locally.
func (e *Engine) HasImage(ref string) bool {
	e.apiCall()
	return e.rt.Store().HasImage(ref)
}

// ImageRemove deletes a cached image (docker rmi).
func (e *Engine) ImageRemove(ref string) error {
	e.apiCall()
	return e.rt.Store().RemoveImage(ref)
}

// CreateOptions parameterize ContainerCreate.
type CreateOptions struct {
	Name   string
	Image  string
	Labels map[string]string
	// VolumeNames are engine-managed named volumes mounted into the
	// container; containers naming the same volume (within the same
	// VolumeNamespace) share it — the Nginx+Py service relies on this.
	VolumeNames []string
	// VolumeNamespace scopes the named volumes, so two services can
	// both use a volume called "www" without sharing state. The app
	// model always sees the unscoped name.
	VolumeNamespace string
	// Port overrides the app model's container port; 0 keeps the model.
	Port uint16
}

// ContainerCreate creates a container (docker create). The image must be
// pulled already.
func (e *Engine) ContainerCreate(opts CreateOptions) (*containerd.Container, error) {
	e.apiCall()
	model, err := e.resolver.Resolve(opts.Image)
	if err != nil {
		return nil, fmt.Errorf("docker: %w", err)
	}
	vols := make(map[string]*containerd.Volume, len(opts.VolumeNames))
	e.mu.Lock()
	for _, name := range opts.VolumeNames {
		key := name
		if opts.VolumeNamespace != "" {
			key = opts.VolumeNamespace + "/" + name
		}
		v, ok := e.volumes[key]
		if !ok {
			v = containerd.NewVolume(key)
			e.volumes[key] = v
		}
		vols[name] = v
	}
	e.mu.Unlock()
	spec := model.BuildSpec(opts.Name, opts.Image, opts.Labels, vols)
	if opts.Port != 0 {
		spec.Port = opts.Port
	}
	return e.rt.Create(spec)
}

// ContainerStart starts a created container (docker start).
func (e *Engine) ContainerStart(name string) error {
	e.apiCall()
	c := e.rt.Get(name)
	if c == nil {
		return fmt.Errorf("docker: no such container %q", name)
	}
	return c.Start()
}

// ContainerStop stops a running container (docker stop).
func (e *Engine) ContainerStop(name string) error {
	e.apiCall()
	c := e.rt.Get(name)
	if c == nil {
		return fmt.Errorf("docker: no such container %q", name)
	}
	return c.Stop()
}

// ContainerRemove deletes a container (docker rm -f).
func (e *Engine) ContainerRemove(name string) error {
	e.apiCall()
	c := e.rt.Get(name)
	if c == nil {
		return fmt.Errorf("docker: no such container %q", name)
	}
	return c.Remove()
}

// ContainerInspect returns the live container, or nil (docker inspect).
func (e *Engine) ContainerInspect(name string) *containerd.Container {
	e.apiCall()
	return e.rt.Get(name)
}

// ContainerList returns containers matching all label selector entries,
// sorted by name (docker ps --filter label=...).
func (e *Engine) ContainerList(selector map[string]string) []*containerd.Container {
	e.apiCall()
	out := e.rt.List(selector)
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// VolumeInspect returns an engine-managed volume, or nil.
func (e *Engine) VolumeInspect(name string) *containerd.Volume {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.volumes[name]
}
