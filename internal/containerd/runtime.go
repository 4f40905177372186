package containerd

import (
	"fmt"
	"sync"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/registry"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// Runtime is one containerd instance bound to a host: it owns the image
// store, creates containers, and maps their ports onto the host.
type Runtime struct {
	clk    *vclock.Virtual
	rng    *vclock.Rand
	host   *netem.Host
	timing Timing
	store  *Store

	mu         sync.Mutex
	containers map[string]*Container
	nextPort   uint16
}

// NewRuntime returns a runtime on host with an empty image store.
func NewRuntime(clk *vclock.Virtual, seed int64, host *netem.Host, timing Timing) *Runtime {
	return NewRuntimeWithStore(clk, seed, host, timing, NewStore(clk, seed+1, timing))
}

// NewRuntimeWithStore returns a runtime sharing an existing image store.
// The evaluation's EGS runs Docker and Kubernetes over the same
// containerd, so a pull by one is a cache hit for the other.
func NewRuntimeWithStore(clk *vclock.Virtual, seed int64, host *netem.Host, timing Timing, store *Store) *Runtime {
	return &Runtime{
		clk:        clk,
		rng:        vclock.NewRand(seed),
		host:       host,
		timing:     timing,
		store:      store,
		containers: make(map[string]*Container),
		nextPort:   30000,
	}
}

// SetPortBase moves the dynamic host-port allocator; two runtimes
// sharing one host must use disjoint ranges.
func (r *Runtime) SetPortBase(base uint16) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextPort = base
}

// Clock returns the runtime's time source.
func (r *Runtime) Clock() *vclock.Virtual { return r.clk }

// Host returns the host the runtime serves ports on.
func (r *Runtime) Host() *netem.Host { return r.host }

// Store returns the runtime's image store.
func (r *Runtime) Store() *Store { return r.store }

// Timing returns the runtime's cost model.
func (r *Runtime) Timing() Timing { return r.timing }

// Pull fetches ref from reg into the image store (Pull phase of the
// deployment process). It returns the time this caller waited.
func (r *Runtime) Pull(reg registry.Remote, ref string) (time.Duration, error) {
	return r.store.Pull(reg, ref)
}

// Create builds a container from spec (Create phase). The image must be
// present in the store; the paper's dispatcher runs the Pull phase
// first. The per-layer snapshot cost makes creation of many-layer
// images slightly more expensive, matching the ≈100 ms create overhead
// in Fig. 12.
func (r *Runtime) Create(spec Spec) (*Container, error) {
	im, ok := r.store.Image(spec.Image)
	if !ok {
		return nil, fmt.Errorf("containerd: image %q not pulled", spec.Image)
	}
	if spec.Port != 0 && spec.Handler == nil {
		return nil, fmt.Errorf("containerd: container %q exposes port %d without a handler", spec.Name, spec.Port)
	}
	r.mu.Lock()
	if _, dup := r.containers[spec.Name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("containerd: container %q already exists", spec.Name)
	}
	hostPort := spec.HostPort
	if spec.Port != 0 && hostPort == 0 {
		hostPort = r.nextPort
		r.nextPort++
	}
	c := &Container{
		rt:       r,
		spec:     spec,
		state:    StateCreated,
		hostPort: hostPort,
		ready:    vclock.NewGate(),
		stop:     vclock.NewGate(),
	}
	r.containers[spec.Name] = c
	r.mu.Unlock()

	cost := r.timing.CreateBase + time.Duration(len(im.Layers))*r.timing.SnapshotPerLayer
	r.clk.Sleep(r.rng.Jitter(cost, r.timing.JitterFrac))
	return c, nil
}

// Get returns the container with the given name, or nil.
func (r *Runtime) Get(name string) *Container {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.containers[name]
}

// List returns containers whose labels include all entries of selector.
// A nil selector matches everything.
func (r *Runtime) List(selector map[string]string) []*Container {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*Container
	for _, c := range r.containers {
		if matchesLabels(c.spec.Labels, selector) {
			out = append(out, c)
		}
	}
	return out
}

// matchesLabels reports whether labels contains every selector entry.
func matchesLabels(labels, selector map[string]string) bool {
	for k, v := range selector {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// forget removes a container from the runtime's index after Remove.
func (r *Runtime) forget(c *Container) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.containers[c.spec.Name] == c {
		delete(r.containers, c.spec.Name)
	}
}
