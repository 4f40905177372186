package openflow

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// ChannelFaults is a seeded fault model for one switch's control
// channel: packet-in, flow-mod, flow-removed, and packet-out messages
// are independently lost or delayed. Loss and delay draws come from a
// per-message-key RNG stream (keyed by the flow or match the message
// concerns), so the outcome for any given message is a pure function of
// the seed and that message's position in its own stream — goroutine
// interleaving between unrelated flows cannot perturb the draws, which
// keeps chaos runs reproducible.
//
// A nil *ChannelFaults (the default) means a perfect channel; the
// switch's fast paths check a single atomic pointer, so the model costs
// nothing when disabled.
type ChannelFaults struct {
	// Seed derives every per-key RNG stream.
	Seed int64
	// PacketInLoss drops punted packets on their way to the controller.
	PacketInLoss float64
	// FlowModLoss drops flow-mod messages (install and delete): the
	// switch never sees them, the controller believes they applied.
	FlowModLoss float64
	// FlowRemovedLoss drops eviction notifications, leaving the
	// controller's FlowMemory believing a flow still exists.
	FlowRemovedLoss float64
	// PacketOutLoss drops re-injected held packets.
	PacketOutLoss float64
	// ReorderRate delays a message by ExtraDelay with this probability,
	// letting later messages overtake it.
	ReorderRate float64
	// ExtraDelay is the added control-channel delay for reordered
	// messages.
	ExtraDelay time.Duration

	streams vclock.Streams
}

// drop draws the loss decision for one message.
func (f *ChannelFaults) drop(key string, p float64) bool {
	if p <= 0 {
		return false
	}
	return f.streams.Stream(f.Seed, key).Float64() < p
}

// delay draws the reorder decision for one message: ExtraDelay when the
// message is reordered, zero otherwise.
func (f *ChannelFaults) delay(key string) time.Duration {
	if f.ReorderRate <= 0 || f.ExtraDelay <= 0 {
		return 0
	}
	if f.streams.Stream(f.Seed, key).Float64() < f.ReorderRate {
		return f.ExtraDelay
	}
	return 0
}

// msgClass is the kind of a control message: each has its own loss rate
// in the fault model and its own drop counter on the switch.
type msgClass uint8

const (
	msgPacketIn msgClass = iota
	msgFlowMod
	msgFlowRemoved
	msgPacketOut
)

// channel models one message entering the control channel — the shared
// prologue of every control message, blocking or posted. It returns the
// one-way delay the message takes and whether the fault model lost it on
// the way. The rng stream key is prefix+subject(); subject is only
// called when faults are armed, so a perfect channel builds no string.
// A message draws loss first and reordering second, from its own stream.
func (s *Switch) channel(class msgClass, prefix string, subject func() string) (delay time.Duration, lost bool) {
	delay = s.CtrlLatency
	f := s.faults.Load()
	if f == nil {
		return delay, false
	}
	var loss float64
	var drops *atomic.Int64
	switch class {
	case msgPacketIn:
		loss, drops = f.PacketInLoss, &s.pktInDrops
	case msgFlowMod:
		loss, drops = f.FlowModLoss, &s.flowModDrops
	case msgFlowRemoved:
		loss, drops = f.FlowRemovedLoss, &s.flowRemDrops
	case msgPacketOut:
		loss, drops = f.PacketOutLoss, &s.pktOutDrops
	}
	key := prefix + subject()
	if f.drop(key, loss) {
		drops.Add(1)
		return delay, true
	}
	if extra := f.delay(key); extra > 0 {
		s.ctrlDelayed.Add(1)
		delay += extra
	}
	return delay, false
}

// flowName is the stream-key subject of packet-in and packet-out
// messages: the packet's address pair.
func flowName(pkt *netem.Packet) string {
	var buf [len("255.255.255.255:65535>255.255.255.255:65535")]byte
	b := append(appendHostPort(buf[:0], pkt.Src), '>')
	return string(appendHostPort(b, pkt.Dst))
}

// ctrlMsg is one control message in flight: the operand, next to the
// switch, of the Post2 callback that fires when it arrives. Records are
// pooled, so sending a message allocates nothing. Which fields are set
// depends on the message: to+pkt+inPort for a packet-in, to+removed for
// a flow-removed, spec for a posted flow-mod, pkt+inPort+actions for a
// posted packet-out; the posted forms also carry the sender's
// continuation and whether the channel lost the message.
type ctrlMsg struct {
	to      Handler
	spec    FlowSpec
	pkt     *netem.Packet
	inPort  int
	actions []Action
	removed FlowRemoved
	lost    bool
	then    func(arg any)
	arg     any
}

var ctrlMsgPool = sync.Pool{New: func() any { return new(ctrlMsg) }}

func newMsg() *ctrlMsg { return ctrlMsgPool.Get().(*ctrlMsg) }

// recycle returns the record to the pool and hands back its contents.
func (m *ctrlMsg) recycle() ctrlMsg {
	v := *m
	*m = ctrlMsg{}
	ctrlMsgPool.Put(m)
	return v
}

func packetInArrived(s, msg any) {
	m := msg.(*ctrlMsg).recycle()
	m.to.PacketIn(s.(*Switch), PacketIn{Pkt: m.pkt, InPort: m.inPort})
}

func flowRemovedArrived(s, msg any) {
	m := msg.(*ctrlMsg).recycle()
	m.to.FlowRemoved(s.(*Switch), m.removed)
}

func flowModArrived(s, msg any) {
	m := msg.(*ctrlMsg).recycle()
	if !m.lost {
		s.(*Switch).install(m.spec)
	}
	m.then(m.arg)
}

func packetOutArrived(s, msg any) {
	m := msg.(*ctrlMsg).recycle()
	if !m.lost {
		s.(*Switch).packetOut(m.pkt, m.inPort, m.actions)
	}
	m.then(m.arg)
}

// ChannelStats counts control-channel faults a switch has suffered.
// The counters live on the switch (not the fault plan), so they survive
// the fault window being cleared.
type ChannelStats struct {
	PacketInDrops    int64
	FlowModDrops     int64
	FlowRemovedDrops int64
	PacketOutDrops   int64
	Delayed          int64
}

// Total sums every dropped-message counter.
func (c ChannelStats) Total() int64 {
	return c.PacketInDrops + c.FlowModDrops + c.FlowRemovedDrops + c.PacketOutDrops
}

// SwitchEvent notifies the controller of a datapath lifecycle change.
type SwitchEvent struct {
	// Restarted reports the switch rebooted and lost its flow table.
	Restarted bool
	// At is the virtual instant of the event (before channel latency).
	At time.Time
}

// SetChannelFaults installs (or, with nil, removes) the control-channel
// fault model. Safe to call mid-run from a clock callback.
func (s *Switch) SetChannelFaults(f *ChannelFaults) {
	s.faults.Store(f)
}

// ChannelStats reports cumulative control-channel fault counters.
func (s *Switch) ChannelStats() ChannelStats {
	return ChannelStats{
		PacketInDrops:    s.pktInDrops.Load(),
		FlowModDrops:     s.flowModDrops.Load(),
		FlowRemovedDrops: s.flowRemDrops.Load(),
		PacketOutDrops:   s.pktOutDrops.Load(),
		Delayed:          s.ctrlDelayed.Load(),
	}
}

// Events returns the lifecycle event mailbox. The controller watches it
// to learn about switch restarts.
func (s *Switch) Events() *vclock.Mailbox[SwitchEvent] {
	return s.events
}
