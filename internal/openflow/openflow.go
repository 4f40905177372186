// Package openflow implements the OpenFlow-subset software switch the
// transparent-access approach programs: priority flow tables matching on
// the TCP 5-tuple, set-field rewrite actions, output actions, idle and
// hard timeouts with FlowRemoved notifications, packet-in punting to the
// controller, and packet-out re-injection.
//
// The switch is a netem.Device, so rewrites genuinely happen on the
// packets of live connections — the client keeps talking to the
// registered cloud address while an edge instance answers (Fig. 2 of
// the paper).
package openflow

import (
	"cmp"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// Match selects packets on the TCP 5-tuple; zero fields are wildcards.
// InPort 0 is a wildcard (ports are numbered from 1).
type Match struct {
	InPort  int
	SrcIP   netem.IP
	DstIP   netem.IP
	SrcPort uint16
	DstPort uint16
}

// matchSig identifies which fields of a Match are set (non-wildcard).
// The table keeps flows indexed by their exact Match, grouped by
// signature: classifying a packet probes one index key per distinct
// signature present — tuple-space search, as in Open vSwitch — instead
// of scanning the whole table.
type matchSig uint8

const (
	sigInPort matchSig = 1 << iota
	sigSrcIP
	sigDstIP
	sigSrcPort
	sigDstPort
)

// signature returns the set-field mask of m.
func (m Match) signature() matchSig {
	var s matchSig
	if m.InPort != 0 {
		s |= sigInPort
	}
	if m.SrcIP != 0 {
		s |= sigSrcIP
	}
	if m.DstIP != 0 {
		s |= sigDstIP
	}
	if m.SrcPort != 0 {
		s |= sigSrcPort
	}
	if m.DstPort != 0 {
		s |= sigDstPort
	}
	return s
}

// project builds the Match a flow of this signature must carry to cover
// pkt: packet fields where the signature sets them, wildcards elsewhere.
// A flow covers the packet iff its Match equals the projection — so an
// exact-match map lookup replicates Covers for the whole tuple class.
func (sig matchSig) project(pkt *netem.Packet, inPort int) Match {
	var m Match
	if sig&sigInPort != 0 {
		m.InPort = inPort
	}
	if sig&sigSrcIP != 0 {
		m.SrcIP = pkt.Src.IP
	}
	if sig&sigDstIP != 0 {
		m.DstIP = pkt.Dst.IP
	}
	if sig&sigSrcPort != 0 {
		m.SrcPort = pkt.Src.Port
	}
	if sig&sigDstPort != 0 {
		m.DstPort = pkt.Dst.Port
	}
	return m
}

// Covers reports whether the match selects pkt arriving on inPort.
func (m Match) Covers(pkt *netem.Packet, inPort int) bool {
	if m.InPort != 0 && m.InPort != inPort {
		return false
	}
	if m.SrcIP != 0 && m.SrcIP != pkt.Src.IP {
		return false
	}
	if m.DstIP != 0 && m.DstIP != pkt.Dst.IP {
		return false
	}
	if m.SrcPort != 0 && m.SrcPort != pkt.Src.Port {
		return false
	}
	if m.DstPort != 0 && m.DstPort != pkt.Dst.Port {
		return false
	}
	return true
}

// String renders the match compactly for diagnostics.
func (m Match) String() string {
	var buf [len("in=-9223372036854775808 255.255.255.255:65535>255.255.255.255:65535")]byte
	b := strconv.AppendInt(append(buf[:0], "in="...), int64(m.InPort), 10)
	b = appendEndpoint(append(b, ' '), m.SrcIP, m.SrcPort)
	b = appendEndpoint(append(b, '>'), m.DstIP, m.DstPort)
	return string(b)
}

// appendEndpoint appends "ip:port", with * for a wildcard (zero) ip.
func appendEndpoint(b []byte, ip netem.IP, port uint16) []byte {
	if ip == 0 {
		return strconv.AppendUint(append(b, '*', ':'), uint64(port), 10)
	}
	return appendHostPort(b, netem.HostPort{IP: ip, Port: port})
}

// appendHostPort appends hp as netem.HostPort.String renders it.
func appendHostPort(b []byte, hp netem.HostPort) []byte {
	for i, o := range hp.IP.Octets() {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(o), 10)
	}
	return strconv.AppendUint(append(b, ':'), uint64(hp.Port), 10)
}

// Action is one instruction applied to a matching packet.
type Action interface {
	isAction()
}

// SetDstIP rewrites the destination address.
type SetDstIP struct{ IP netem.IP }

// SetDstPort rewrites the destination port.
type SetDstPort struct{ Port uint16 }

// SetSrcIP rewrites the source address.
type SetSrcIP struct{ IP netem.IP }

// SetSrcPort rewrites the source port.
type SetSrcPort struct{ Port uint16 }

// Output forwards the packet out of a specific port.
type Output struct{ Port int }

// OutputNormal forwards via the switch's L3 routing table — the
// behaviour of unregistered traffic.
type OutputNormal struct{}

// OutputController punts the packet to the SDN controller (packet-in).
type OutputController struct{}

// Drop discards the packet.
type Drop struct{}

func (SetDstIP) isAction()         {}
func (SetDstPort) isAction()       {}
func (SetSrcIP) isAction()         {}
func (SetSrcPort) isAction()       {}
func (Output) isAction()           {}
func (OutputNormal) isAction()     {}
func (OutputController) isAction() {}
func (Drop) isAction()             {}

// FlowSpec describes one flow entry to install.
type FlowSpec struct {
	Priority int
	Match    Match
	Actions  []Action
	// IdleTimeout evicts the entry after inactivity; 0 disables.
	IdleTimeout time.Duration
	// HardTimeout evicts the entry unconditionally; 0 disables.
	HardTimeout time.Duration
	// Cookie is opaque controller metadata echoed in FlowRemoved.
	Cookie uint64
}

// FlowID is a flow's comparable identity: its priority, its match, and
// what its action list does to a packet — the set-fields folded to one
// rewrite and the terminal (a port, NORMAL, the controller, or drop).
// Two specs with equal IDs classify and treat every packet alike;
// timeouts and cookies are not part of the identity. Reconcilers key
// their table diff on it. The fields are ordered widest first so the
// value has no interior padding and hashes as one block.
type FlowID struct {
	priority, inPort, outPort  int
	srcIP, dstIP, toSrc, toDst netem.IP
	srcPort, dstPort           uint16
	toSrcPort, toDstPort       uint16
	set                        fieldMask
	term                       terminal
}

// fieldMask names the packet address fields a rewrite sets.
type fieldMask uint8

// Address field bits.
const (
	fieldSrcIP fieldMask = 1 << iota
	fieldSrcPort
	fieldDstIP
	fieldDstPort
)

// rewrite is an action list's set-fields folded into one: the fields in
// fields are overwritten with the corresponding values from src/dst.
type rewrite struct {
	fields   fieldMask
	src, dst netem.HostPort
}

// ID computes f's identity. The action list is read the way the pipeline
// executes it: a later set-field of one field overrides an earlier one,
// nothing after the terminal counts, and a list without a terminal
// drops.
func (f FlowSpec) ID() FlowID {
	rw, term, port := compileActions(f.Actions)
	m := f.Match
	return FlowID{
		priority: f.Priority, inPort: m.InPort, outPort: port,
		srcIP: m.SrcIP, dstIP: m.DstIP, toSrc: rw.src.IP, toDst: rw.dst.IP,
		srcPort: m.SrcPort, dstPort: m.DstPort,
		toSrcPort: rw.src.Port, toDstPort: rw.dst.Port,
		set: rw.fields, term: term,
	}
}

type flowEntry struct {
	FlowSpec
	seq      uint64
	lastUsed time.Time
	packets  int64
	bytes    int64
	removed  bool
}

// FlowRemoved notifies the controller of an evicted entry.
type FlowRemoved struct {
	Match  Match
	Cookie uint64
	// IdleTimeout is true for idle eviction, false for hard eviction or
	// explicit deletion.
	IdleTimeout bool
}

// PacketIn carries a punted packet to the controller. The switch keeps
// no buffer: the controller owns the packet and can hold it while it
// deploys a service, then re-inject it with PostPacketOut — the
// "on-demand deployment with waiting" mechanism.
type PacketIn struct {
	Pkt    *netem.Packet
	InPort int
}

// FlowStats is a snapshot of one entry's counters.
type FlowStats struct {
	Priority int
	Match    Match
	Cookie   uint64
	Packets  int64
	Bytes    int64
}

// Switch is one OpenFlow switch instance.
type Switch struct {
	name string
	clk  *vclock.Virtual
	// CtrlLatency is the control-channel one-way delay.
	CtrlLatency time.Duration

	mu       sync.Mutex
	ports    []*netem.Port
	routes   map[netem.IP]int
	ranges   []rangeRoute
	defRoute int
	table    []*flowEntry
	seq      uint64
	// handler is the connected controller; nil until Connect.
	handler Handler

	// removedCount tracks lazily evicted entries still occupying table
	// slots, for amortized compaction (see compactLocked).
	removedCount int
	// index groups live flows by their exact Match; sigCount tracks how
	// many live flows carry each field signature. Together they make
	// packet classification O(#signatures) map probes (tuple-space
	// search) instead of a linear table scan.
	index    map[Match][]*flowEntry
	sigCount map[matchSig]int

	// micro is the exact-match microflow cache in front of the
	// tuple-space classifier: one probe memoizes the winning entry (or
	// the resolved NORMAL route) for a (5-tuple, inPort) flow. Entries
	// carry the epoch they were resolved at; any table or route
	// mutation bumps epoch, lazily invalidating the whole cache.
	micro       map[microKey]microEntry
	microOn     bool
	microHits   int64
	microMisses int64
	// epoch versions the forwarding state: the microflow cache checks
	// its entries against it, and AppendTableSince reports it as the
	// table version. Every install, eviction, delete, wipe and route
	// change bumps it.
	epoch uint64

	// counters
	punted  int64
	dropped int64
	normal  int64

	// faults, when non-nil, injects loss/delay into the control channel
	// (see channel.go). Atomic so the datapath checks it without mu.
	faults atomic.Pointer[ChannelFaults]
	// onPacketOut, when set, observes every controller PacketOut at the
	// moment it re-enters the pipeline (after control-channel latency
	// and loss). Nil-gated and atomic so the clean path pays one load.
	// The load engine uses it to measure punt→packet-out dispatch
	// latency; the observer must not retain or mutate the packet.
	onPacketOut atomic.Pointer[func(pkt *netem.Packet, inPort int)]
	// events carries lifecycle notifications (restarts) to the
	// controller.
	events *vclock.Mailbox[SwitchEvent]
	// control-channel fault counters (see ChannelStats).
	pktInDrops   atomic.Int64
	flowModDrops atomic.Int64
	flowRemDrops atomic.Int64
	pktOutDrops  atomic.Int64
	ctrlDelayed  atomic.Int64
}

// microKey is the exact-match cache key: ingress port plus the full
// address 4-tuple.
type microKey struct {
	inPort   int
	src, dst netem.HostPort
}

// microEntry memoizes one classification result. entry == nil means the
// packet missed the table and takes NORMAL forwarding out of port
// (port < 1 means no route: drop).
type microEntry struct {
	epoch uint64
	entry *flowEntry
	port  int
}

// microCap bounds the cache; overflowing resets it (epoch-invalidated
// entries are never swept individually).
const microCap = 8192

// NewSwitch creates a switch with n ports (numbered 1..n) on net's clock.
func NewSwitch(net *netem.Network, name string, n int) *Switch {
	s := &Switch{
		name:        name,
		clk:         net.Clock,
		CtrlLatency: 2 * time.Millisecond,
		routes:      make(map[netem.IP]int),
		defRoute:    -1,
		index:       make(map[Match][]*flowEntry),
		sigCount:    make(map[matchSig]int),
		micro:       make(map[microKey]microEntry),
		microOn:     true,
		events:      vclock.NewMailbox[SwitchEvent](net.Clock),
	}
	for i := 1; i <= n; i++ {
		s.ports = append(s.ports, &netem.Port{Dev: s, ID: i})
	}
	return s
}

// DeviceName implements netem.Device.
func (s *Switch) DeviceName() string { return s.name }

// Port returns the port numbered i (1-based).
func (s *Switch) Port(i int) *netem.Port {
	return s.ports[i-1]
}

// AddRoute sets the NORMAL-forwarding route for a host address.
func (s *Switch) AddRoute(ip netem.IP, port int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.routes[ip] = port
	s.epoch++
}

// rangeRoute is one NORMAL-forwarding prefix route: addresses matching
// base under mask egress on port. Checked after the exact host routes,
// before the default.
type rangeRoute struct {
	base, mask netem.IP
	port       int
}

// AddRouteRange sets a NORMAL-forwarding route for a whole address
// block (base/mask), consulted when no exact host route matches. One
// entry covers an arbitrarily large population — the load engine routes
// its entire CGNAT client block with a single range instead of one host
// route (and one forwarding-epoch bump, which would invalidate the
// microflow cache) per flow.
func (s *Switch) AddRouteRange(base, mask netem.IP, port int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range s.ranges {
		if r.base == base&mask && r.mask == mask {
			s.ranges[i].port = port
			s.epoch++
			return
		}
	}
	s.ranges = append(s.ranges, rangeRoute{base: base & mask, mask: mask, port: port})
	s.epoch++
}

// SetDefaultRoute sets the NORMAL route for unknown destinations
// (toward the cloud).
func (s *Switch) SetDefaultRoute(port int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.defRoute = port
	s.epoch++
}

// SetMicroflow enables or disables the microflow cache (enabled by
// default); disabling clears it. Differential tests use this to compare
// cached and uncached classification.
func (s *Switch) SetMicroflow(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.microOn = on
	clear(s.micro)
}

// MicroStats reports microflow cache hits and misses.
func (s *Switch) MicroStats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.microHits, s.microMisses
}

// Handler receives a switch's asynchronous control messages. Both
// methods are called on the clock's event loop, inline from the Post
// callback that models the message crossing the control channel, so
// they must not block: a handler that has to wait starts its own
// goroutine for that.
type Handler interface {
	// PacketIn delivers a punted packet. The handler owns pin.Pkt and
	// releases it when it is done with it.
	PacketIn(sw *Switch, pin PacketIn)
	// FlowRemoved reports an evicted entry.
	FlowRemoved(sw *Switch, msg FlowRemoved)
}

// Connect attaches the controller: punted packets and flow removals are
// delivered to h after the control-channel latency.
func (s *Switch) Connect(h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handler = h
}

// HandlePacket implements netem.Device: the flow table pipeline.
func (s *Switch) HandlePacket(pkt *netem.Packet, in *netem.Port) {
	inPort := 0
	if in != nil {
		inPort = in.ID
	}
	s.process(pkt, inPort)
}

// process looks up the table and applies the winning entry's actions,
// falling back to NORMAL forwarding on a miss. A microflow-cache hit
// skips the tuple-space search: the whole classification is one map
// probe.
func (s *Switch) process(pkt *netem.Packet, inPort int) {
	s.mu.Lock()
	var best *flowEntry
	normalPort := -1
	key := microKey{inPort: inPort, src: pkt.Src, dst: pkt.Dst}
	if me, ok := s.micro[key]; s.microOn && ok && me.epoch == s.epoch {
		best, normalPort = me.entry, me.port
		s.microHits++
	} else {
		for sig := range s.sigCount {
			for _, e := range s.index[sig.project(pkt, inPort)] {
				if e.removed {
					continue
				}
				if best == nil || e.Priority > best.Priority ||
					(e.Priority == best.Priority && e.seq < best.seq) {
					best = e
				}
			}
		}
		if best == nil {
			normalPort = s.normalRouteLocked(pkt.Dst.IP)
		}
		if s.microOn {
			s.microMisses++
			if len(s.micro) >= microCap {
				clear(s.micro)
			}
			s.micro[key] = microEntry{epoch: s.epoch, entry: best, port: normalPort}
		}
	}
	if best == nil {
		s.normal++
		s.mu.Unlock()
		if normalPort < 1 {
			s.drop(pkt)
			return
		}
		s.send(pkt, normalPort)
		return
	}
	best.lastUsed = s.clk.Now()
	best.packets++
	best.bytes += int64(pkt.WireSize())
	actions := best.Actions
	s.mu.Unlock()
	s.apply(pkt, inPort, actions)
}

// normalRouteLocked resolves the NORMAL egress for a destination;
// callers hold s.mu. The result is < 1 when no route exists.
func (s *Switch) normalRouteLocked(ip netem.IP) int {
	if port, ok := s.routes[ip]; ok {
		return port
	}
	for _, r := range s.ranges {
		if ip&r.mask == r.base {
			return r.port
		}
	}
	return s.defRoute
}

// drop counts and recycles an undeliverable packet.
func (s *Switch) drop(pkt *netem.Packet) {
	s.mu.Lock()
	s.dropped++
	s.mu.Unlock()
	pkt.Release()
}

// terminal is how an action list ends.
type terminal uint8

const (
	termDrop       terminal = iota // Drop, or no output at all
	termOutput                     // Output: a specific port
	termNormal                     // OutputNormal
	termController                 // OutputController
)

// compileActions folds an action list into the rewrite its set-fields
// add up to, the terminal that ends it, and the terminal's port (for
// termOutput). Actions after the terminal never run and are ignored.
func compileActions(actions []Action) (rw rewrite, term terminal, port int) {
	for _, a := range actions {
		switch act := a.(type) {
		case SetDstIP:
			rw.fields |= fieldDstIP
			rw.dst.IP = act.IP
		case SetDstPort:
			rw.fields |= fieldDstPort
			rw.dst.Port = act.Port
		case SetSrcIP:
			rw.fields |= fieldSrcIP
			rw.src.IP = act.IP
		case SetSrcPort:
			rw.fields |= fieldSrcPort
			rw.src.Port = act.Port
		case Output:
			return rw, termOutput, act.Port
		case OutputNormal:
			return rw, termNormal, 0
		case OutputController:
			return rw, termController, 0
		case Drop:
			return rw, termDrop, 0
		}
	}
	return rw, termDrop, 0
}

// apply executes an action list on pkt.
func (s *Switch) apply(pkt *netem.Packet, inPort int, actions []Action) {
	for _, a := range actions {
		switch act := a.(type) {
		case SetDstIP:
			pkt.Dst.IP = act.IP
		case SetDstPort:
			pkt.Dst.Port = act.Port
		case SetSrcIP:
			pkt.Src.IP = act.IP
		case SetSrcPort:
			pkt.Src.Port = act.Port
		case Output:
			s.send(pkt, act.Port)
			return
		case OutputNormal:
			s.forwardNormal(pkt)
			return
		case OutputController:
			s.puntToController(pkt, inPort)
			return
		case Drop:
			s.mu.Lock()
			s.dropped++
			s.mu.Unlock()
			pkt.Release()
			return
		}
	}
	// An action list without an output terminates in a drop, per spec.
	s.mu.Lock()
	s.dropped++
	s.mu.Unlock()
	pkt.Release()
}

func (s *Switch) send(pkt *netem.Packet, port int) {
	if port < 1 || port > len(s.ports) {
		s.mu.Lock()
		s.dropped++
		s.mu.Unlock()
		pkt.Release()
		return
	}
	s.ports[port-1].Send(pkt)
}

func (s *Switch) forwardNormal(pkt *netem.Packet) {
	s.mu.Lock()
	port := s.normalRouteLocked(pkt.Dst.IP)
	s.mu.Unlock()
	if port < 1 {
		s.drop(pkt)
		return
	}
	s.send(pkt, port)
}

func (s *Switch) puntToController(pkt *netem.Packet, inPort int) {
	s.mu.Lock()
	h := s.handler
	s.punted++
	s.mu.Unlock()
	defer pkt.Release()
	if h == nil {
		return
	}
	delay, lost := s.channel(msgPacketIn, "pktin/", func() string { return flowName(pkt) })
	if lost {
		return
	}
	// The controller holds the punted copy while it deploys, so it gets
	// its own clone; the controller releases it when done with it.
	m := newMsg()
	m.to, m.pkt, m.inPort = h, pkt.Clone(), inPort
	s.clk.Post2(delay, packetInArrived, s, m)
}

// InstallFlow adds a flow entry (FlowMod ADD). The call models the
// control-channel latency before the entry becomes active. Under
// channel faults the message may be silently lost: the switch never
// installs the entry and the caller is not told — reconciliation is
// what repairs the divergence.
func (s *Switch) InstallFlow(spec FlowSpec) {
	delay, lost := s.channel(msgFlowMod, "mod/", spec.Match.String)
	s.clk.Sleep(delay)
	if !lost {
		s.install(spec)
	}
}

// PostInstallFlow is InstallFlow for callers on the clock's event loop,
// which cannot sleep: the flow-mod is sent now, and then(arg) runs on
// the event loop at the instant InstallFlow would have returned — the
// entry active, or the message lost.
func (s *Switch) PostInstallFlow(spec FlowSpec, then func(arg any), arg any) {
	delay, lost := s.channel(msgFlowMod, "mod/", spec.Match.String)
	m := newMsg()
	m.spec, m.lost, m.then, m.arg = spec, lost, then, arg
	s.clk.Post2(delay, flowModArrived, s, m)
}

// install activates one entry: the switch side of a delivered FlowMod.
func (s *Switch) install(spec FlowSpec) {
	s.mu.Lock()
	e := s.installLocked(spec)
	s.mu.Unlock()
	s.armTimers(e)
}

// installLocked appends one entry to the table and classifier index.
// Callers hold s.mu and arm the entry's timers after unlocking.
func (s *Switch) installLocked(spec FlowSpec) *flowEntry {
	s.seq++
	e := &flowEntry{FlowSpec: spec, seq: s.seq, lastUsed: s.clk.Now()}
	s.table = append(s.table, e)
	s.index[spec.Match] = append(s.index[spec.Match], e)
	s.sigCount[spec.Match.signature()]++
	s.epoch++
	return e
}

// armTimers starts an entry's idle and hard eviction timers.
func (s *Switch) armTimers(e *flowEntry) {
	if e.IdleTimeout > 0 {
		s.clk.Post2(e.IdleTimeout, idleCheck, s, e)
	}
	if e.HardTimeout > 0 {
		s.clk.Post2(e.HardTimeout, hardExpire, s, e)
	}
}

// hardExpire is the hard-timeout timer's callback.
func hardExpire(s, e any) { s.(*Switch).evict(e.(*flowEntry), false) }

// idleCheck is the idle-eviction timer's callback: it evicts the entry
// when it has been silent for its idle timeout, and otherwise re-arms
// itself lazily for the remainder — traffic never touches the timer.
func idleCheck(a, b any) {
	s, e := a.(*Switch), b.(*flowEntry)
	s.mu.Lock()
	if e.removed {
		s.mu.Unlock()
		return
	}
	silent := s.clk.Since(e.lastUsed)
	s.mu.Unlock()
	if silent >= e.IdleTimeout {
		s.evict(e, true)
		return
	}
	s.clk.Post2(e.IdleTimeout-silent, idleCheck, s, e)
}

// evict removes an entry and notifies the controller.
func (s *Switch) evict(e *flowEntry, idle bool) {
	s.mu.Lock()
	if e.removed {
		s.mu.Unlock()
		return
	}
	e.removed = true
	s.removedCount++
	s.dropIndexLocked(e)
	s.compactLocked()
	s.epoch++
	h := s.handler
	s.mu.Unlock()
	if h == nil {
		return
	}
	delay, lost := s.channel(msgFlowRemoved, "rem/", e.Match.String)
	if lost {
		return
	}
	m := newMsg()
	m.to, m.removed = h, FlowRemoved{Match: e.Match, Cookie: e.Cookie, IdleTimeout: idle}
	s.clk.Post2(delay, flowRemovedArrived, s, m)
}

// DeleteFlows removes all entries with the given cookie (FlowMod
// DELETE); no FlowRemoved is generated for explicit deletion.
func (s *Switch) DeleteFlows(cookie uint64) int {
	delay, lost := s.channel(msgFlowMod, "del/", func() string { return strconv.FormatUint(cookie, 10) })
	s.clk.Sleep(delay)
	if lost {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.table[:0]
	removed := 0
	for _, e := range s.table {
		if e.removed {
			continue // lazily evicted leftover, drop it for good
		}
		if e.Cookie == cookie {
			e.removed = true
			s.dropIndexLocked(e)
			removed++
			continue
		}
		kept = append(kept, e)
	}
	for i := len(kept); i < len(s.table); i++ {
		s.table[i] = nil
	}
	s.table = kept
	s.removedCount = 0
	s.epoch++
	return removed
}

// dropIndexLocked unlinks an evicted entry from the classifier index.
// The per-Match bucket is tiny (re-installs of one flow), so the swap
// removal is O(1) in practice; selection among bucket entries compares
// priority and sequence, so bucket order is irrelevant.
func (s *Switch) dropIndexLocked(e *flowEntry) {
	idx := s.index[e.Match]
	for i, cur := range idx {
		if cur == e {
			idx[i] = idx[len(idx)-1]
			idx[len(idx)-1] = nil
			idx = idx[:len(idx)-1]
			break
		}
	}
	if len(idx) == 0 {
		delete(s.index, e.Match)
	} else {
		s.index[e.Match] = idx
	}
	sig := e.Match.signature()
	if s.sigCount[sig]--; s.sigCount[sig] == 0 {
		delete(s.sigCount, sig)
	}
}

// compactLocked rebuilds the table in place once evicted entries
// outnumber live ones. Eviction itself only marks the entry, so a flow
// churn (install + idle-evict per warm packet-in) costs amortized O(1)
// instead of one full-table copy per evicted flow. Lookups already skip
// removed entries, so compaction is invisible except for cost.
func (s *Switch) compactLocked() {
	if s.removedCount*2 <= len(s.table) {
		return
	}
	kept := s.table[:0]
	for _, e := range s.table {
		if !e.removed {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(s.table); i++ {
		s.table[i] = nil
	}
	s.table = kept
	s.removedCount = 0
}

// DeleteExact removes the single live entry with exactly this match
// and priority (FlowMod DELETE_STRICT); no FlowRemoved is generated.
// It reports whether an entry was removed. Subject to flow-mod loss.
func (s *Switch) DeleteExact(m Match, priority int) bool {
	delay, lost := s.channel(msgFlowMod, "del/", m.String)
	s.clk.Sleep(delay)
	if lost {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteExactLocked(m, priority)
}

// deleteExactLocked removes the first live entry with the exact match
// and priority. Callers hold s.mu.
func (s *Switch) deleteExactLocked(m Match, priority int) bool {
	for _, e := range s.index[m] {
		if !e.removed && e.Priority == priority {
			e.removed = true
			s.removedCount++
			s.dropIndexLocked(e)
			s.compactLocked()
			s.epoch++
			return true
		}
	}
	return false
}

// ApplyBundle applies a reconciliation repair set — orphan deletions
// followed by missing installs — as one barriered, acknowledged
// exchange: the OpenFlow BUNDLE commit idiom. Like ResyncFrom it is
// not subject to channel faults; reconcilers repair with it precisely
// so that repairs never themselves need repairing, and so that repair
// traffic does not perturb the fault model's per-message loss streams.
// It returns how many deletes removed a live entry.
func (s *Switch) ApplyBundle(deletes, installs []FlowSpec) int {
	s.clk.Sleep(2 * s.CtrlLatency) // bundle transfer + commit round trip
	s.mu.Lock()
	deleted := 0
	for _, spec := range deletes {
		if s.deleteExactLocked(spec.Match, spec.Priority) {
			deleted++
		}
	}
	entries := make([]*flowEntry, 0, len(installs))
	for _, spec := range installs {
		entries = append(entries, s.installLocked(spec))
	}
	s.mu.Unlock()
	for _, e := range entries {
		s.armTimers(e)
	}
	return deleted
}

// Barrier models an OFPT_BARRIER round trip: it returns once all
// preceding control messages have been processed, or false when the
// barrier itself was lost to channel faults.
func (s *Switch) Barrier() bool {
	s.clk.Sleep(2 * s.CtrlLatency)
	if f := s.faults.Load(); f != nil && f.drop("barrier", f.FlowModLoss) {
		s.flowModDrops.Add(1)
		return false
	}
	return true
}

// Restart models a switch reboot: the flow table, classifier index,
// and microflow cache are lost; static configuration (routes, port
// wiring, controller connection) survives. The controller learns of
// the reboot on the event mailbox after the channel latency and is
// expected to ResyncFrom its desired state.
func (s *Switch) Restart() {
	s.mu.Lock()
	s.wipeTableLocked()
	connected := s.handler != nil
	s.mu.Unlock()
	if connected {
		at := s.clk.Now()
		s.clk.Post(s.CtrlLatency, func() {
			s.events.Send(SwitchEvent{Restarted: true, At: at})
		})
	}
}

// wipeTableLocked drops every flow entry. Entries are marked removed
// so in-flight idle/hard timers no-op.
// Callers hold s.mu.
func (s *Switch) wipeTableLocked() {
	for i, e := range s.table {
		e.removed = true
		s.table[i] = nil
	}
	s.table = s.table[:0]
	s.removedCount = 0
	clear(s.index)
	clear(s.sigCount)
	clear(s.micro)
	s.epoch++
}

// ResyncFrom replaces the whole flow table with specs in one reliable
// barriered exchange — the recovery primitive the controller uses
// after a restart. Unlike InstallFlow it is not subject to channel
// faults: the real-world analogue is a bundled, acknowledged,
// retried-until-applied sync.
func (s *Switch) ResyncFrom(specs []FlowSpec) {
	s.clk.Sleep(s.CtrlLatency)
	s.mu.Lock()
	s.wipeTableLocked()
	entries := make([]*flowEntry, 0, len(specs))
	for _, spec := range specs {
		entries = append(entries, s.installLocked(spec))
	}
	s.mu.Unlock()
	for _, e := range entries {
		s.armTimers(e)
	}
}

// compareMatch orders matches field by field, in the order String
// renders them: in-port, source address and port, destination address
// and port. Wildcards (zero) sort first.
func compareMatch(a, b Match) int {
	if c := cmp.Compare(a.InPort, b.InPort); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SrcIP, b.SrcIP); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SrcPort, b.SrcPort); c != 0 {
		return c
	}
	if c := cmp.Compare(a.DstIP, b.DstIP); c != 0 {
		return c
	}
	return cmp.Compare(a.DstPort, b.DstPort)
}

// compareEntries is the one order table snapshots are reported in:
// priority descending, then match (compareMatch), then install order.
func compareEntries(a, b *flowEntry) int {
	if c := cmp.Compare(b.Priority, a.Priority); c != 0 {
		return c
	}
	if c := compareMatch(a.Match, b.Match); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// snapshotLocked returns the live entries in compareEntries order.
// Callers hold s.mu.
func (s *Switch) snapshotLocked() []*flowEntry {
	var live []*flowEntry
	for _, e := range s.table {
		if !e.removed {
			live = append(live, e)
		}
	}
	slices.SortFunc(live, compareEntries)
	return live
}

// FlowTable reads back the live table as FlowSpecs (a flow-stats
// round trip), sorted by priority descending, then match field by
// field, then install order.
func (s *Switch) FlowTable() []FlowSpec {
	s.clk.Sleep(2 * s.CtrlLatency)
	s.mu.Lock()
	defer s.mu.Unlock()
	live := s.snapshotLocked()
	out := make([]FlowSpec, len(live))
	for i, e := range live {
		out[i] = e.FlowSpec
	}
	return out
}

// AppendTableSince is the reconciler's flow-stats read. It pays
// FlowTable's round trip, then asks since for the table version
// of the caller's last read that it still trusts (ok false: none). If
// the table is still at that version, nothing has been installed,
// evicted, deleted or wiped since: it leaves dst alone and reports
// fresh false. Otherwise it appends the live entries in install order —
// unsorted, unlike FlowTable — and returns the version they were
// read at. A nil since always reads.
func (s *Switch) AppendTableSince(dst []FlowSpec, since func() (version uint64, ok bool)) (out []FlowSpec, version uint64, fresh bool) {
	s.clk.Sleep(2 * s.CtrlLatency)
	var last uint64
	var trusted bool
	if since != nil {
		last, trusted = since()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if trusted && s.epoch == last {
		return dst, last, false
	}
	dst = slices.Grow(dst, len(s.table))
	for _, e := range s.table {
		if !e.removed {
			dst = append(dst, e.FlowSpec)
		}
	}
	return dst, s.epoch, true
}

// PostPacketOut re-injects a packet held by the controller, applying
// the given actions (typically after installing the redirect flows; none
// means OFPP_TABLE). The message is sent now. One control-channel delay
// later the switch re-injects a clone of pkt, unless the channel lost
// the message, and then(arg) runs on the clock's event loop either way;
// the caller still owns pkt and may release it in then.
func (s *Switch) PostPacketOut(pkt *netem.Packet, inPort int, actions []Action, then func(arg any), arg any) {
	delay, lost := s.channel(msgPacketOut, "out/", func() string { return flowName(pkt) })
	m := newMsg()
	m.pkt, m.inPort, m.actions, m.lost, m.then, m.arg = pkt, inPort, actions, lost, then, arg
	s.clk.Post2(delay, packetOutArrived, s, m)
}

// packetOut re-injects a clone of pkt: the switch side of a delivered
// PacketOut.
func (s *Switch) packetOut(pkt *netem.Packet, inPort int, actions []Action) {
	if h := s.onPacketOut.Load(); h != nil {
		(*h)(pkt, inPort)
	}
	if len(actions) == 0 {
		// OFPP_TABLE: run the packet through the pipeline again.
		s.process(pkt.Clone(), inPort)
		return
	}
	s.apply(pkt.Clone(), inPort, actions)
}

// SetPacketOutHook installs (or, with nil, clears) the packet-out
// observer. See the onPacketOut field comment for the contract.
func (s *Switch) SetPacketOutHook(h func(pkt *netem.Packet, inPort int)) {
	if h == nil {
		s.onPacketOut.Store(nil)
		return
	}
	s.onPacketOut.Store(&h)
}

// Flows returns a snapshot of the table's counters in FlowTable's order:
// priority descending, then match field by field, then install order.
func (s *Switch) Flows() []FlowStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := s.snapshotLocked()
	out := make([]FlowStats, len(live))
	for i, e := range live {
		out[i] = FlowStats{
			Priority: e.Priority,
			Match:    e.Match,
			Cookie:   e.Cookie,
			Packets:  e.packets,
			Bytes:    e.bytes,
		}
	}
	return out
}

// Counters reports punted, dropped, and NORMAL-forwarded packet counts.
func (s *Switch) Counters() (punted, dropped, normal int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.punted, s.dropped, s.normal
}
