package netem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// CaptureFunc receives a copy of every packet entering a link, with the
// clock time of transmission — the emulator's tcpdump tap.
type CaptureFunc func(ts time.Time, pkt *Packet)

// Network owns the devices and links of one emulated topology.
type Network struct {
	Clock *vclock.Virtual

	mu      sync.Mutex
	rng     *vclock.Rand
	hosts   map[string]*Host
	byIP    map[IP]*Host
	links   []*Link
	nextCID uint64
	// capture holds the installed tap behind an atomic pointer so the
	// per-packet fast path is one load, no lock, and no packet Clone
	// when no tap is registered.
	capture atomic.Pointer[CaptureFunc]
}

// NewNetwork returns an empty topology driven by clk. seed feeds the
// deterministic randomness used for loss and jitter.
func NewNetwork(clk *vclock.Virtual, seed int64) *Network {
	return &Network{
		Clock: clk,
		rng:   vclock.NewRand(seed),
		hosts: make(map[string]*Host),
		byIP:  make(map[IP]*Host),
	}
}

// NewHost creates a host with one NIC and the given primary address.
// Host names and addresses must be unique within the network.
func (n *Network) NewHost(name string, ip IP) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.hosts[name]; dup {
		panic(fmt.Sprintf("netem: duplicate host %q", name))
	}
	if _, dup := n.byIP[ip]; dup {
		panic(fmt.Sprintf("netem: duplicate IP %s", ip))
	}
	h := newHost(n, name, ip)
	n.hosts[name] = h
	n.byIP[ip] = h
	return h
}

// Host returns the host with the given name, or nil.
func (n *Network) Host(name string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hosts[name]
}

// HostByIP returns the host owning ip, or nil.
func (n *Network) HostByIP(ip IP) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.byIP[ip]
}

// Connect wires two ports together with the given link characteristics.
// Each port can be part of only one link.
func (n *Network) Connect(a, b *Port, cfg LinkConfig) *Link {
	if a.link != nil || b.link != nil {
		panic("netem: port already connected")
	}
	l := &Link{clk: n.Clock, rng: n.rng, net: n, cfg: cfg, a: a, b: b}
	a.link, a.peer = l, b
	b.link, b.peer = l, a
	n.mu.Lock()
	n.links = append(n.links, l)
	n.mu.Unlock()
	return l
}

// SetCapture installs a packet tap on every link (pass nil to remove).
// The function is called synchronously from transmit paths and must be
// fast and thread-safe. The tap owns the copies it receives and may
// retain them; it must not mutate or Release packets it did not copy.
func (n *Network) SetCapture(fn CaptureFunc) {
	if fn == nil {
		n.capture.Store(nil)
		return
	}
	n.capture.Store(&fn)
}

// captureActive reports whether a tap is installed.
func (n *Network) captureActive() bool { return n.capture.Load() != nil }

// capturePacket taps one transmitted packet.
func (n *Network) capturePacket(pkt *Packet) {
	if fn := n.capture.Load(); fn != nil {
		(*fn)(n.Clock.Now(), pkt.Clone())
	}
}

// nextConnID issues a unique connection tag for capture/debugging.
func (n *Network) nextConnID() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextCID++
	return n.nextCID
}
