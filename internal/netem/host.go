package netem

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// Transport errors returned by Dial, Recv, and friends.
var (
	// ErrRefused means the remote host answered with RST: no listener on
	// that port (the service instance is not ready yet).
	ErrRefused = errors.New("netem: connection refused")
	// ErrTimeout means handshake or delivery retries were exhausted.
	ErrTimeout = errors.New("netem: connection timed out")
	// ErrReset means the peer aborted an established connection.
	ErrReset = errors.New("netem: connection reset by peer")
	// ErrClosed means the connection or listener was closed locally, or
	// the peer finished sending.
	ErrClosed = errors.New("netem: closed")
)

// Host is an end system with one NIC, a TCP-like transport, and
// port listeners.
type Host struct {
	net  *Network
	name string
	ip   IP
	nic  *Port
	// clk is the clock this host's transport runs on: the network
	// clock. Set at creation and read-only afterwards.
	clk vclock.Clock

	mu        sync.Mutex
	listeners map[uint16]*Listener
	conns     map[connKey]*Conn
	nextPort  uint16
	dropped   int64 // packets for foreign addresses or dead connections
}

type connKey struct {
	local  uint16
	remote HostPort
}

func newHost(n *Network, name string, ip IP) *Host {
	h := &Host{
		net:       n,
		name:      name,
		ip:        ip,
		clk:       n.Clock,
		listeners: make(map[uint16]*Listener),
		conns:     make(map[connKey]*Conn),
		nextPort:  49152,
	}
	h.nic = &Port{Dev: h, ID: 0}
	return h
}

// DeviceName implements Device.
func (h *Host) DeviceName() string { return h.name }

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// IP returns the host's primary address.
func (h *Host) IP() IP { return h.ip }

// NIC returns the host's single network attachment point.
func (h *Host) NIC() *Port { return h.nic }

// Addr returns the full endpoint for a port on this host.
func (h *Host) Addr(port uint16) HostPort { return HostPort{IP: h.ip, Port: port} }

// deliverLoopback is the Post2 callback for loopback traffic.
func deliverLoopback(a, b any) {
	b.(*Host).HandlePacket(a.(*Packet), nil)
}

// send emits a locally originated packet, taking ownership of pkt and
// short-circuiting loopback traffic destined to this host itself.
func (h *Host) send(pkt *Packet) {
	if pkt.Dst.IP == h.ip {
		h.clk.Post2(50*time.Microsecond, deliverLoopback, pkt, h)
		return
	}
	h.nic.Send(pkt)
}

// HandlePacket implements Device: demultiplex to a connection or
// listener, or answer strays with RST. The host owns pkt and recycles it
// once demultiplexing is done — connection state keeps only the payload
// slice, never the packet itself.
func (h *Host) HandlePacket(pkt *Packet, in *Port) {
	defer pkt.Release()
	if pkt.Dst.IP != h.ip {
		h.mu.Lock()
		h.dropped++
		h.mu.Unlock()
		return
	}
	key := connKey{local: pkt.Dst.Port, remote: pkt.Src}
	h.mu.Lock()
	c := h.conns[key]
	if c != nil {
		// A fresh SYN on a tuple whose old connection is defunct is a
		// new connection attempt (ephemeral-port reuse after close);
		// retire the stale state and fall through to the listener.
		if pkt.Flags.Has(FlagSYN) && !pkt.Flags.Has(FlagACK) && c.defunct() {
			delete(h.conns, key)
		} else {
			h.mu.Unlock()
			c.handle(pkt)
			return
		}
	}
	if pkt.Flags.Has(FlagSYN) && !pkt.Flags.Has(FlagACK) {
		ln := h.listeners[pkt.Dst.Port]
		if ln != nil && !ln.closed {
			c = h.newServerConnLocked(pkt)
			h.mu.Unlock()
			c.sendSynAck()
			ln.backlog.Send(c)
			return
		}
		h.mu.Unlock()
		h.replyRST(pkt)
		return
	}
	h.dropped++
	h.mu.Unlock()
	if !pkt.Flags.Has(FlagRST) {
		h.replyRST(pkt)
	}
}

// replyRST answers pkt with a reset, src/dst swapped.
func (h *Host) replyRST(pkt *Packet) {
	rst := NewPacket()
	rst.Src, rst.Dst = pkt.Dst, pkt.Src
	rst.Flags = FlagRST
	rst.ConnID = pkt.ConnID
	h.send(rst)
}

// Dropped reports packets discarded because no connection or listener
// claimed them.
func (h *Host) Dropped() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

// allocEphemeralLocked picks an unused local port ≥ 49152.
func (h *Host) allocEphemeralLocked(remote HostPort) uint16 {
	for tries := 0; tries < 65536; tries++ {
		p := h.nextPort
		h.nextPort++
		if h.nextPort < 49152 {
			h.nextPort = 49152
		}
		if _, used := h.conns[connKey{local: p, remote: remote}]; !used {
			if _, listening := h.listeners[p]; !listening {
				return p
			}
		}
	}
	panic("netem: ephemeral ports exhausted")
}

// Listen opens a listener on port. It fails if the port is in use.
func (h *Host) Listen(port uint16) (*Listener, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ln, ok := h.listeners[port]; ok && !ln.closed {
		return nil, fmt.Errorf("netem: %s port %d already listening", h.name, port)
	}
	ln := &Listener{
		host:    h,
		port:    port,
		backlog: vclock.NewMailbox[*Conn](h.clk),
	}
	h.listeners[port] = ln
	return ln, nil
}

// Listening reports whether a live listener is bound to port.
func (h *Host) Listening(port uint16) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	ln, ok := h.listeners[port]
	return ok && !ln.closed
}

// Dial opens a connection to remote, blocking until the handshake
// completes. It returns ErrRefused if the remote answers RST and
// ErrTimeout if SYN retries are exhausted.
func (h *Host) Dial(remote HostPort) (*Conn, error) {
	return h.DialTimeout(remote, 0)
}

// DialTimeout is Dial with an overall handshake deadline; zero means the
// transport's own retry budget applies.
func (h *Host) DialTimeout(remote HostPort, timeout time.Duration) (*Conn, error) {
	h.mu.Lock()
	local := h.allocEphemeralLocked(remote)
	c := newConn(h, HostPort{IP: h.ip, Port: local}, remote, true)
	h.conns[connKey{local: local, remote: remote}] = c
	h.mu.Unlock()

	c.startHandshake()
	if timeout > 0 {
		if !c.established.WaitTimeout(h.clk, timeout) {
			c.fail(ErrTimeout)
			return nil, ErrTimeout
		}
	} else {
		c.established.Wait(h.clk)
	}
	c.mu.Lock()
	err := c.failErr
	c.mu.Unlock()
	if err != nil {
		h.removeConn(c)
		return nil, err
	}
	return c, nil
}

func (h *Host) removeConn(c *Conn) {
	h.mu.Lock()
	key := connKey{local: c.local.Port, remote: c.remote}
	if h.conns[key] == c {
		delete(h.conns, key)
	}
	h.mu.Unlock()
}

func (h *Host) newServerConnLocked(syn *Packet) *Conn {
	c := newConn(h, syn.Dst, syn.Src, false)
	c.connID = syn.ConnID
	c.state = stateEstablished
	c.established.Open()
	h.conns[connKey{local: syn.Dst.Port, remote: syn.Src}] = c
	return c
}

// Listener accepts inbound connections on one port.
type Listener struct {
	host    *Host
	port    uint16
	backlog *vclock.Mailbox[*Conn]
	closed  bool
}

// Port returns the bound port.
func (ln *Listener) Port() uint16 { return ln.port }

// Addr returns the full listening endpoint.
func (ln *Listener) Addr() HostPort { return ln.host.Addr(ln.port) }

// Accept blocks until an inbound connection arrives. It returns
// ErrClosed after Close.
func (ln *Listener) Accept() (*Conn, error) {
	c, ok := ln.backlog.Recv()
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

// AcceptTimeout is Accept with a deadline; ErrTimeout on expiry.
func (ln *Listener) AcceptTimeout(d time.Duration) (*Conn, error) {
	c, ok := ln.backlog.RecvTimeout(d)
	if !ok {
		ln.host.mu.Lock()
		closed := ln.closed
		ln.host.mu.Unlock()
		if closed {
			return nil, ErrClosed
		}
		return nil, ErrTimeout
	}
	return c, nil
}

// Close stops accepting; subsequent SYNs to the port are refused.
// Established connections are unaffected.
func (ln *Listener) Close() {
	ln.host.mu.Lock()
	if ln.closed {
		ln.host.mu.Unlock()
		return
	}
	ln.closed = true
	if ln.host.listeners[ln.port] == ln {
		delete(ln.host.listeners, ln.port)
	}
	ln.host.mu.Unlock()
	ln.backlog.Close()
}
