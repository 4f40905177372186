package netem

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// TCPFlags carries the subset of TCP control bits the emulation models.
type TCPFlags uint8

// TCP control bits.
const (
	FlagSYN TCPFlags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
	FlagPSH
)

// Has reports whether all bits in f are set.
func (t TCPFlags) Has(f TCPFlags) bool { return t&f == f }

// flagNames orders the render of String; the bit order matches the
// constant declarations above.
var flagNames = [...]string{"SYN", "ACK", "FIN", "RST", "PSH"}

// String renders the flags like "SYN|ACK". It builds the result in a
// fixed-size stack buffer — one allocation (the returned string), never
// an intermediate slice — because capture and trace paths format every
// packet.
func (t TCPFlags) String() string {
	if t == 0 {
		return "-"
	}
	var buf [len(flagNames)*4 - 1]byte
	b := buf[:0]
	for i, name := range flagNames {
		if t&(1<<i) == 0 {
			continue
		}
		if len(b) > 0 {
			b = append(b, '|')
		}
		b = append(b, name...)
	}
	return string(b)
}

// headerOverhead is the modelled per-packet wire overhead
// (Ethernet 14 + IPv4 20 + TCP 32 with options).
const headerOverhead = 66

// Packet is one TCP segment travelling through the emulated network.
//
// Packets carry explicit ownership: Port.Send and Host-level transmit
// take ownership of the packet they are handed, and a Device owns every
// packet HandlePacket delivers to it — it either forwards the packet
// (passing ownership on) or is responsible for it afterwards. Owners may
// rewrite the address fields in place. A sender that needs to keep a
// packet (retransmit queues, capture taps) must transmit a Clone.
type Packet struct {
	Src, Dst HostPort
	Flags    TCPFlags
	// Seq numbers messages within a connection (not bytes); the reliable
	// transport delivers messages to the application in Seq order.
	Seq uint32
	// Ack acknowledges a message Seq when FlagACK is set on a bare ack.
	Ack     uint32
	Payload []byte
	// ConnID tags all segments of one originating connection attempt.
	// It is debugging/capture metadata only: forwarding and demux use
	// the address fields, which rewrites may change.
	ConnID uint64
}

// pktPool recycles Packet structs so the steady-state forwarding path
// allocates nothing. Payload backing arrays are never pooled: they are
// shared, immutable-once-sent, and may outlive the packet (the receiver
// keeps the slice).
var pktPool = sync.Pool{New: func() any { return new(Packet) }}

// livePackets counts packets taken from the pool and not yet released.
// Chaos invariant checks compare it before and after a run to prove the
// system does not accumulate held packets.
var livePackets atomic.Int64

// LivePackets reports the number of pooled packets currently checked
// out (allocated or cloned and not yet released). Holders that rely on
// the GC fallback instead of calling Release keep the count elevated,
// which is exactly what the leak checks are looking for.
func LivePackets() int64 { return livePackets.Load() }

// NewPacket returns a zeroed packet from the pool. The caller owns it.
func NewPacket() *Packet {
	p := pktPool.Get().(*Packet)
	*p = Packet{}
	livePackets.Add(1)
	return p
}

// Release returns a packet to the pool. Only the packet's owner may call
// it, and must not touch the packet afterwards. Releasing is optional —
// an unreleased packet just falls to the garbage collector — so holders
// of indefinitely retained copies (captures, controller-held packets)
// can simply keep them.
func (p *Packet) Release() {
	livePackets.Add(-1)
	pktPool.Put(p)
}

// WireSize is the modelled size in bytes used for serialization delay.
func (p *Packet) WireSize() int { return headerOverhead + len(p.Payload) }

// Clone returns a deep copy from the packet pool; the payload slice is
// shared (treated as immutable once sent).
func (p *Packet) Clone() *Packet {
	q := pktPool.Get().(*Packet)
	*q = *p
	livePackets.Add(1)
	return q
}

// String renders a compact single-line description for logs and tests.
func (p *Packet) String() string {
	return fmt.Sprintf("%s>%s %s seq=%d ack=%d len=%d", p.Src, p.Dst, p.Flags, p.Seq, p.Ack, len(p.Payload))
}
