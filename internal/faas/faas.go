// Package faas implements the paper's future-work direction (§VIII):
// "enabling the side-by-side operation of containers and serverless
// applications" — a WebAssembly-style serverless runtime whose
// instances cold-start in milliseconds because they skip exactly the
// cost that dominates container startup: network-namespace creation
// (Mohan et al. [23]) and image unpacking. The runtime plugs into the
// same cluster abstraction the SDN controller already dispatches to, so
// transparent access needs no changes — which is the point the future
// work wants evaluated.
//
// The cold-start advantage modelled here follows Gackstatter et al.
// [7]: Wasm instantiation in the low milliseconds versus hundreds of
// milliseconds for containers.
package faas

import (
	"fmt"
	"sync"
	"time"

	"github.com/c3lab/transparentedge/internal/containerd"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/registry"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// Timing is the serverless runtime cost model.
type Timing struct {
	// FetchOverhead is the fixed per-module download overhead from the
	// module store (modules are single small artifacts, not layered
	// images).
	FetchOverhead time.Duration
	// CompileBandwidth is the AOT-compile/validate rate in bytes/s,
	// paid once per cached module.
	CompileBandwidth float64
	// Instantiate is the per-instance cold start: create a fresh
	// isolate, link imports, open the socket. No network namespace.
	Instantiate time.Duration
	// CallOverhead is the per-request sandbox-boundary cost.
	CallOverhead time.Duration
	// JitterFrac scales uniform jitter on all of the above.
	JitterFrac float64
}

// DefaultTiming returns a cost model in line with published Wasm
// cold-start measurements: instantiation in single-digit milliseconds.
func DefaultTiming() Timing {
	return Timing{
		FetchOverhead:    40 * time.Millisecond,
		CompileBandwidth: 64 << 20, // 64 MiB/s AOT compile
		Instantiate:      4 * time.Millisecond,
		CallOverhead:     150 * time.Microsecond,
		JitterFrac:       0.15,
	}
}

// Runtime hosts WebAssembly service instances on one edge node.
type Runtime struct {
	clk    *vclock.Virtual
	rng    *vclock.Rand
	host   *netem.Host
	timing Timing

	mu        sync.Mutex
	modules   map[string]registry.Image
	instances map[string]*Instance
	nextPort  uint16
}

// NewRuntime returns an empty serverless runtime on host.
func NewRuntime(clk *vclock.Virtual, seed int64, host *netem.Host, timing Timing) *Runtime {
	return &Runtime{
		clk:       clk,
		rng:       vclock.NewRand(seed),
		host:      host,
		timing:    timing,
		modules:   make(map[string]registry.Image),
		instances: make(map[string]*Instance),
		nextPort:  40000,
	}
}

// Host returns the node the runtime serves ports on.
func (r *Runtime) Host() *netem.Host { return r.host }

// HasModule reports whether ref is fetched and compiled.
func (r *Runtime) HasModule(ref string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.modules[ref]
	return ok
}

// Fetch downloads and AOT-compiles a module — the serverless analogue
// of the Pull phase ("with serverless computing, download the source
// code from the cloud", §IV-C).
func (r *Runtime) Fetch(reg registry.Remote, ref string) error {
	if r.HasModule(ref) {
		return nil
	}
	im, err := reg.FetchManifest(ref)
	if err != nil {
		return fmt.Errorf("faas: %w", err)
	}
	reg.DownloadLayersFor(ref, im.Layers)
	compile := time.Duration(0)
	if r.timing.CompileBandwidth > 0 {
		compile = time.Duration(float64(im.TotalSize()) / r.timing.CompileBandwidth * float64(time.Second))
	}
	r.clk.Sleep(r.rng.Jitter(r.timing.FetchOverhead+compile, r.timing.JitterFrac))
	r.mu.Lock()
	r.modules[ref] = im
	r.mu.Unlock()
	return nil
}

// DropModule removes a compiled module from the cache.
func (r *Runtime) DropModule(ref string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.modules, ref)
}

// InstanceSpec describes one serverless instance to start.
type InstanceSpec struct {
	// Name must be unique within the runtime.
	Name string
	// Module is the fetched module reference.
	Module string
	// Handler serves requests.
	Handler containerd.Handler
}

// Instance is one running isolate.
type Instance struct {
	rt       *Runtime
	spec     InstanceSpec
	hostPort uint16

	mu       sync.Mutex
	listener *netem.Listener
	stopped  bool
}

// Instantiate cold-starts an isolate: the module must be fetched. The
// call returns once the instance's port answers — there is no separate
// create/start split, which is exactly the operational simplification
// serverless buys.
func (r *Runtime) Instantiate(spec InstanceSpec) (*Instance, error) {
	r.mu.Lock()
	if _, ok := r.modules[spec.Module]; !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("faas: module %q not fetched", spec.Module)
	}
	if _, dup := r.instances[spec.Name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("faas: instance %q already running", spec.Name)
	}
	if spec.Handler == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("faas: instance %q without a handler", spec.Name)
	}
	port := r.nextPort
	r.nextPort++
	inst := &Instance{rt: r, spec: spec, hostPort: port}
	r.instances[spec.Name] = inst
	r.mu.Unlock()

	r.clk.Sleep(r.rng.Jitter(r.timing.Instantiate, r.timing.JitterFrac))
	ln, err := r.host.Listen(port)
	if err != nil {
		r.forget(inst)
		return nil, err
	}
	inst.mu.Lock()
	inst.listener = ln
	inst.mu.Unlock()
	ln.Serve(inst.handle)
	return inst, nil
}

// Get returns the named running instance, or nil.
func (r *Runtime) Get(name string) *Instance {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.instances[name]
}

func (r *Runtime) forget(inst *Instance) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.instances[inst.spec.Name] == inst {
		delete(r.instances, inst.spec.Name)
	}
}

// Addr returns the instance's reachable endpoint.
func (i *Instance) Addr() netem.HostPort {
	return netem.HostPort{IP: i.rt.host.IP(), Port: i.hostPort}
}

// Name returns the instance name.
func (i *Instance) Name() string { return i.spec.Name }

// handle serves one request: the per-call overhead, then the handler,
// unless the isolate was stopped meanwhile.
func (i *Instance) handle(req []byte) ([]byte, bool) {
	i.rt.clk.Sleep(i.rt.rng.Jitter(i.rt.timing.CallOverhead, i.rt.timing.JitterFrac))
	i.mu.Lock()
	dead := i.stopped
	i.mu.Unlock()
	if dead {
		return nil, false
	}
	return i.spec.Handler.Serve(i.rt.clk, req), true
}

// Stop tears the isolate down; serverless instances have no stopped
// state worth keeping, so Stop also removes.
func (i *Instance) Stop() {
	i.mu.Lock()
	if i.stopped {
		i.mu.Unlock()
		return
	}
	i.stopped = true
	ln := i.listener
	i.listener = nil
	i.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	i.rt.forget(i)
}
