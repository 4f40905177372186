package netem

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// Device is anything packets can be delivered to: a host NIC, a switch,
// a router. HandlePacket runs on a clock goroutine and owns the packet:
// it forwards it (ownership passes on) or keeps/releases it.
type Device interface {
	DeviceName() string
	// HandlePacket processes a packet arriving on in. in is nil for
	// locally originated packets (loopback delivery).
	HandlePacket(pkt *Packet, in *Port)
}

// Port is one attachment point of a device. A port is connected to at
// most one link.
type Port struct {
	Dev  Device
	ID   int
	link *Link
	peer *Port
}

// Peer returns the port at the other end of this port's link, or nil.
func (p *Port) Peer() *Port { return p.peer }

// Send transmits pkt out of this port onto the attached link, taking
// ownership of pkt. Packets sent on an unconnected port are dropped.
func (p *Port) Send(pkt *Packet) {
	if p.link == nil {
		pkt.Release()
		return
	}
	p.link.transmit(pkt, p)
}

// LinkConfig describes one direction-symmetric link.
type LinkConfig struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth is the transmission rate in bytes per second; zero means
	// infinitely fast (no serialization delay).
	Bandwidth float64
	// LossRate drops each packet independently with this probability.
	LossRate float64
}

// GbpsToBytes converts gigabits per second to the bytes-per-second unit
// LinkConfig.Bandwidth uses.
func GbpsToBytes(gbps float64) float64 { return gbps * 1e9 / 8 }

// Link joins two ports with latency, per-direction serialization, and
// optional random loss.
type Link struct {
	clk *vclock.Virtual
	rng *vclock.Rand
	net *Network
	cfg LinkConfig
	a   *Port
	b   *Port

	// down marks the link administratively/physically dead: every packet
	// offered while set is dropped. Atomic so SetDown and IsDown need no
	// lock.
	down atomic.Bool

	mu sync.Mutex
	// nextFree tracks, per transmit direction, when the transmitter
	// finishes serializing the previous packet.
	nextFreeA time.Time // for packets leaving a
	nextFreeB time.Time // for packets leaving b

	// stats: sent counts every packet offered to the direction
	// (pre-loss); drop counts the subset the link lost. downDrops is the
	// subset of drops caused by the link being down.
	sentA, sentB int64
	dropA, dropB int64
	downDrops    int64
}

// SetDown marks the link down (true) or up (false). While down, every
// packet offered to either direction is dropped. In-flight packets that
// already left the transmitter still arrive: SetDown cuts the cable, it
// does not vaporize propagating signals.
func (l *Link) SetDown(down bool) { l.down.Store(down) }

// IsDown reports whether the link is currently down.
func (l *Link) IsDown() bool { return l.down.Load() }

// deliverPacket hands an arriving packet to the receiving device. It is
// a top-level Post2 callback so scheduling a delivery allocates nothing.
func deliverPacket(a, b any) {
	to := b.(*Port)
	to.Dev.HandlePacket(a.(*Packet), to)
}

// transmit models serialization + propagation and schedules delivery of
// pkt at the peer device. The link owns pkt from here: the receiver gets
// this very packet (senders that retransmit pass clones), or the pool
// gets it back if the link drops it.
func (l *Link) transmit(pkt *Packet, from *Port) {
	if l.net != nil && l.net.captureActive() {
		l.net.capturePacket(pkt)
	}
	l.mu.Lock()
	var nextFree *time.Time
	var to *Port
	if from == l.a {
		nextFree, to = &l.nextFreeA, l.b
		l.sentA++
	} else {
		nextFree, to = &l.nextFreeB, l.a
		l.sentB++
	}
	if l.down.Load() {
		if from == l.a {
			l.dropA++
		} else {
			l.dropB++
		}
		l.downDrops++
		l.mu.Unlock()
		pkt.Release()
		return
	}
	if l.cfg.LossRate > 0 && l.rng.Float64() < l.cfg.LossRate {
		if from == l.a {
			l.dropA++
		} else {
			l.dropB++
		}
		l.mu.Unlock()
		pkt.Release()
		return
	}
	now := l.clk.Now()
	start := now
	if nextFree.After(start) {
		start = *nextFree
	}
	txTime := time.Duration(0)
	if l.cfg.Bandwidth > 0 {
		txTime = time.Duration(float64(pkt.WireSize()) / l.cfg.Bandwidth * float64(time.Second))
	}
	end := start.Add(txTime)
	*nextFree = end
	deliverAt := end.Add(l.cfg.Latency)
	l.mu.Unlock()

	l.clk.Post2(deliverAt.Sub(now), deliverPacket, pkt, to)
}

// LinkStats reports per-direction link counters. Sent counts every
// packet offered to the link (before the loss decision), Dropped the
// packets the link lost, and Delivered = Sent − Dropped the packets that
// reached the far device.
type LinkStats struct {
	SentAB, DroppedAB, DeliveredAB int64 // packets leaving port a
	SentBA, DroppedBA, DeliveredBA int64 // packets leaving port b
	// DownDrops is the subset of drops (both directions) caused by the
	// link being down rather than random loss.
	DownDrops int64
}

// Stats reports packets offered, dropped, and delivered in each
// direction (a→b, b→a).
func (l *Link) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LinkStats{
		SentAB: l.sentA, DroppedAB: l.dropA, DeliveredAB: l.sentA - l.dropA,
		SentBA: l.sentB, DroppedBA: l.dropB, DeliveredBA: l.sentB - l.dropB,
		DownDrops: l.downDrops,
	}
}
