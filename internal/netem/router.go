package netem

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// Router is a plain L3 forwarding device with static host routes and an
// optional default route. The evaluation topology uses it for the path
// toward the emulated cloud; the interesting switching happens in the
// OpenFlow switch, which implements Device separately.
type Router struct {
	name string
	clk  vclock.Clock

	mu       sync.Mutex
	ports    []*Port
	routes   map[IP]*Port
	fallback *Port
	// ForwardDelay models lookup/queuing latency per forwarded packet.
	ForwardDelay time.Duration

	// dropped is atomic: stats reporters read it while clock goroutines
	// forward packets.
	dropped atomic.Int64
	// down marks the router crashed: every packet handed to it is
	// dropped until Restart.
	down atomic.Bool
}

// NewRouter returns a router with n ports attached to net's clock.
func NewRouter(n *Network, name string, ports int) *Router {
	r := &Router{
		name:   name,
		clk:    n.Clock,
		routes: make(map[IP]*Port),
	}
	for i := 0; i < ports; i++ {
		r.ports = append(r.ports, &Port{Dev: r, ID: i})
	}
	return r
}

// DeviceName implements Device.
func (r *Router) DeviceName() string { return r.name }

// Port returns the i-th port.
func (r *Router) Port(i int) *Port { return r.ports[i] }

// AddRoute directs traffic for ip out of the given port.
func (r *Router) AddRoute(ip IP, out *Port) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routes[ip] = out
}

// SetDefault directs traffic with no host route out of the given port.
func (r *Router) SetDefault(out *Port) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fallback = out
}

// Crash takes the router down: until Restart every packet handed to it
// is dropped. Static routes survive the crash (the modelled failure is
// power/forwarding-plane loss, not configuration loss).
func (r *Router) Crash() { r.down.Store(true) }

// Restart brings a crashed router back.
func (r *Router) Restart() { r.down.Store(false) }

// IsDown reports whether the router is currently crashed.
func (r *Router) IsDown() bool { return r.down.Load() }

// forwardOut is the Post2 callback for delayed forwarding.
func forwardOut(a, b any) { b.(*Port).Send(a.(*Packet)) }

// HandlePacket implements Device: the router owns pkt and forwards it
// out the routed port (ownership passes on) or recycles it on drop.
func (r *Router) HandlePacket(pkt *Packet, in *Port) {
	if r.down.Load() {
		r.dropped.Add(1)
		pkt.Release()
		return
	}
	r.mu.Lock()
	out := r.routes[pkt.Dst.IP]
	if out == nil {
		out = r.fallback
	}
	if out == nil || out == in {
		r.mu.Unlock()
		r.dropped.Add(1)
		pkt.Release()
		return
	}
	delay := r.ForwardDelay
	r.mu.Unlock()
	if delay <= 0 {
		out.Send(pkt)
		return
	}
	r.clk.Post2(delay, forwardOut, pkt, out)
}

// Dropped reports packets without a usable route.
func (r *Router) Dropped() int64 {
	return r.dropped.Load()
}
