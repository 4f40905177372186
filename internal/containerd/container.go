package containerd

import (
	"fmt"
	"sync"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// Handler emulates the application inside a container: it receives one
// request payload and produces the response, sleeping on clk for any
// modelled processing time (e.g. ResNet inference).
type Handler interface {
	Serve(clk *vclock.Virtual, req []byte) []byte
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(clk *vclock.Virtual, req []byte) []byte

// Serve implements Handler.
func (f HandlerFunc) Serve(clk *vclock.Virtual, req []byte) []byte { return f(clk, req) }

// Spec describes a container to create. It is the runtime-level
// equivalent of one container entry in a pod/service definition.
type Spec struct {
	// Name must be unique within the runtime.
	Name string
	// Image is the image reference; it must be present in the store.
	Image string
	// Port is the container port served by Handler; 0 means the app
	// exposes no port (e.g. the Python sidecar).
	Port uint16
	// HostPort maps Port onto the host; 0 allocates one dynamically.
	HostPort uint16
	// ReadyDelay is the median app initialization time after exec
	// (nginx config parse, TensorFlow model load, ...).
	ReadyDelay time.Duration
	// ReadySigma is the log-normal shape of ReadyDelay.
	ReadySigma float64
	// Handler serves requests once ready; required when Port != 0.
	Handler Handler
	// Background, if set, runs for the life of the container (the
	// env-writer sidecar uses this to update the shared volume).
	Background func(clk *vclock.Virtual, stop *vclock.Gate)
	// Labels are free-form metadata; the SDN controller labels edge
	// services to address and query them distinctly.
	Labels map[string]string
	// Env is the container environment (consumed by Background/Handler
	// through closures; kept for inspection).
	Env map[string]string
	// Mounts lists shared volumes for inspection.
	Mounts []*Volume
}

// State is a container lifecycle state.
type State int

// Container lifecycle states.
const (
	StateCreated State = iota
	StateRunning
	StateStopped
	StateRemoved
)

// String renders the state name.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	case StateRemoved:
		return "removed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Container is one container instance owned by a Runtime.
type Container struct {
	rt   *Runtime
	spec Spec

	mu        sync.Mutex
	state     State
	hostPort  uint16
	listener  *netem.Listener
	ready     *vclock.Gate
	stop      *vclock.Gate
	startedAt time.Time
}

// Spec returns the container's creation spec.
func (c *Container) Spec() Spec { return c.spec }

// Name returns the container name.
func (c *Container) Name() string { return c.spec.Name }

// State returns the current lifecycle state.
func (c *Container) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// HostPort returns the host port mapped to the container port (0 if the
// container exposes none or is not started).
func (c *Container) HostPort() uint16 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hostPort
}

// Addr returns the reachable endpoint of the container's service port.
func (c *Container) Addr() netem.HostPort {
	return netem.HostPort{IP: c.rt.host.IP(), Port: c.HostPort()}
}

func (c *Container) readyGate() *vclock.Gate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ready
}

// Ready reports whether the app finished initializing (port open).
func (c *Container) Ready() bool { return c.readyGate().IsOpen() }

// WaitReady blocks until the app is ready or d elapses.
func (c *Container) WaitReady(d time.Duration) bool {
	return c.readyGate().WaitTimeout(c.rt.clk, d)
}

// Start launches the container: network namespace setup, process exec,
// then asynchronous app initialization that eventually opens the port.
// Start returns once the process is launched, like `docker start`.
func (c *Container) Start() error {
	c.mu.Lock()
	if c.state != StateCreated && c.state != StateStopped {
		st := c.state
		c.mu.Unlock()
		return fmt.Errorf("containerd: cannot start container %q in state %s", c.spec.Name, st)
	}
	c.mu.Unlock()

	t := c.rt.timing
	c.rt.clk.Sleep(c.rt.rng.Jitter(t.NetNSSetup, t.JitterFrac))
	c.rt.clk.Sleep(c.rt.rng.Jitter(t.ExecStart, t.JitterFrac))

	c.mu.Lock()
	if c.state == StateRemoved {
		c.mu.Unlock()
		return fmt.Errorf("containerd: container %q removed during start", c.spec.Name)
	}
	c.state = StateRunning
	c.startedAt = c.rt.clk.Now()
	if c.ready.IsOpen() { // restart after Stop: fresh gates
		c.ready = vclock.NewGate()
	}
	c.stop = vclock.NewGate()
	stop := c.stop
	ready := c.ready
	c.mu.Unlock()

	if c.spec.Background != nil {
		c.rt.clk.Go(func() { c.spec.Background(c.rt.clk, stop) })
	}

	// App initialization happens inside the container, asynchronously.
	delay := c.spec.ReadyDelay
	if delay > 0 && c.spec.ReadySigma > 0 {
		delay = c.rt.rng.LogNormal(delay, c.spec.ReadySigma)
	}
	c.rt.clk.Post(delay, func() { c.finishInit(stop, ready) })
	return nil
}

// finishInit opens the service port and marks the container ready. It
// runs as a clock event: nothing in it waits.
func (c *Container) finishInit(stop, ready *vclock.Gate) {
	c.mu.Lock()
	if c.state != StateRunning || c.stop != stop {
		c.mu.Unlock()
		return
	}
	if c.spec.Port != 0 {
		ln, err := c.rt.host.Listen(c.hostPort)
		if err != nil {
			c.mu.Unlock()
			return
		}
		c.listener = ln
		c.mu.Unlock()
		ln.Serve(func(req []byte) ([]byte, bool) {
			if stop.IsOpen() {
				return nil, false
			}
			resp := c.spec.Handler.Serve(c.rt.clk, req)
			return resp, !stop.IsOpen() // false: process killed while handling
		})
	} else {
		c.mu.Unlock()
	}
	ready.Open()
}

// Stop terminates the container process and closes its port.
func (c *Container) Stop() error {
	c.mu.Lock()
	if c.state != StateRunning {
		st := c.state
		c.mu.Unlock()
		if st == StateStopped {
			return nil
		}
		return fmt.Errorf("containerd: cannot stop container %q in state %s", c.spec.Name, st)
	}
	c.state = StateStopped
	ln := c.listener
	c.listener = nil
	stop := c.stop
	c.mu.Unlock()

	stop.Open()
	if ln != nil {
		ln.Close()
	}
	c.rt.clk.Sleep(c.rt.rng.Jitter(c.rt.timing.StopCost, c.rt.timing.JitterFrac))
	return nil
}

// Remove deletes the container. Running containers are stopped first.
func (c *Container) Remove() error {
	if c.State() == StateRunning {
		if err := c.Stop(); err != nil {
			return err
		}
	}
	c.mu.Lock()
	if c.state == StateRemoved {
		c.mu.Unlock()
		return nil
	}
	c.state = StateRemoved
	c.mu.Unlock()
	c.rt.clk.Sleep(c.rt.rng.Jitter(c.rt.timing.RemoveCost, c.rt.timing.JitterFrac))
	c.rt.forget(c)
	return nil
}
