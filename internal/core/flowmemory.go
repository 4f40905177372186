package core

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// FlowMemory mirrors the redirect flows the controller installed in the
// switches. It lets the controller keep the switch-side idle timeouts
// low: when a flow expires in the switch but the same client asks for
// the same service again, the mapping is re-installed from memory
// without calling the Scheduler. Memorized flows carry their own,
// longer idle timeout whose expiry additionally drives automatic
// scale-down of idle services (§V).
//
// The memory is sharded by flow key so concurrent packet-ins from
// distinct clients never contend on one lock, and idle expiry is a
// coarse per-shard sweep — one armed timer per shard at the earliest
// pending deadline — instead of one timer per memorized flow. At
// millions of entries that is 64 timers instead of millions, while the
// observable expiry instants are identical: a sweep fires exactly at
// the earliest lastUsed+Idle of its shard and re-arms for the next.
type FlowMemory struct {
	clk vclock.Clock
	// Idle is the memory-side idle timeout.
	Idle time.Duration
	// OnServiceIdle, if set, fires when the last memorized flow of a
	// service expires — the scale-down hook.
	OnServiceIdle func(service string)

	// seq orders entries by arrival so expiry side effects (the
	// service-idle hooks) fire in a deterministic order within a sweep,
	// matching the per-entry-timer ordering this design replaced.
	seq atomic.Uint64

	shards [numShards]fmShard
	counts [numShards]fmCountShard
}

type flowKey struct {
	client  netem.IP
	service netem.HostPort
}

type memEntry struct {
	instance cluster.Instance
	lastUsed time.Time
	removed  bool
	svcName  string
	seq      uint64
}

// fmShard is one partition of the memorized flows with its own sweep
// timer state.
type fmShard struct {
	mu      sync.Mutex
	entries map[flowKey]*memEntry
	// sweepArmed reports whether an expiry sweep is scheduled; sweepAt
	// is its deadline (the earliest lastUsed+Idle at arm time).
	sweepArmed bool
}

// fmCountShard is one partition of the per-service live-entry counts,
// sharded by service-name hash independently of the flow shards.
type fmCountShard struct {
	mu     sync.Mutex
	counts map[string]int
}

// NewFlowMemory returns an empty memory with the given idle timeout.
func NewFlowMemory(clk vclock.Clock, idle time.Duration) *FlowMemory {
	fm := &FlowMemory{clk: clk, Idle: idle}
	for i := range fm.shards {
		fm.shards[i].entries = make(map[flowKey]*memEntry)
	}
	for i := range fm.counts {
		fm.counts[i].counts = make(map[string]int)
	}
	return fm
}

func (fm *FlowMemory) shardFor(key flowKey) *fmShard {
	return &fm.shards[hashFlowKey(key)&(numShards-1)]
}

func (fm *FlowMemory) countShardFor(svcName string) *fmCountShard {
	return &fm.counts[fnvString(fnvOffset64, svcName)&(numShards-1)]
}

// addCount increments a service's live-entry count.
func (fm *FlowMemory) addCount(svcName string) {
	cs := fm.countShardFor(svcName)
	cs.mu.Lock()
	cs.counts[svcName]++
	cs.mu.Unlock()
}

// dropCount decrements a service's live-entry count and reports whether
// it reached zero (the last memorized flow of the service is gone).
func (fm *FlowMemory) dropCount(svcName string) (idle bool) {
	cs := fm.countShardFor(svcName)
	cs.mu.Lock()
	cs.counts[svcName]--
	if cs.counts[svcName] <= 0 {
		delete(cs.counts, svcName)
		idle = true
	}
	cs.mu.Unlock()
	return idle
}

// Lookup returns the memorized instance for (client, service) and
// refreshes its idle timer.
func (fm *FlowMemory) Lookup(client netem.IP, service netem.HostPort) (cluster.Instance, bool) {
	key := flowKey{client, service}
	s := fm.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || e.removed {
		return cluster.Instance{}, false
	}
	e.lastUsed = fm.clk.Now()
	return e.instance, true
}

// Remember stores (or replaces) the mapping for (client, service).
// Replacing an entry registered under a different service name re-tags
// it, so the per-service counts driving idle scale-down stay exact.
func (fm *FlowMemory) Remember(client netem.IP, service netem.HostPort, svcName string, inst cluster.Instance) {
	key := flowKey{client, service}
	s := fm.shardFor(key)
	// Count first, insert second: a concurrent sweep or ForgetService
	// can then never observe an entry whose count is missing, so the
	// per-service count can underflow neither to a spurious zero (a
	// lost-entry idle hook) nor below the live-entry total.
	fm.addCount(svcName)
	s.mu.Lock()
	if old, ok := s.entries[key]; ok && !old.removed {
		old.instance = inst
		old.lastUsed = fm.clk.Now()
		oldName := old.svcName
		old.svcName = svcName
		s.mu.Unlock()
		fm.dropCount(oldName)
		return
	}
	e := &memEntry{
		instance: inst,
		lastUsed: fm.clk.Now(),
		svcName:  svcName,
		seq:      fm.seq.Add(1),
	}
	s.entries[key] = e
	if fm.Idle > 0 && !s.sweepArmed {
		// Arm the shard sweep for this entry's deadline. An armed sweep
		// is always at or before every live deadline (deadlines only
		// move later via touches), so it never needs re-arming here.
		s.sweepArmed = true
		fm.clk.Post2(fm.Idle, sweepShard, fm, s)
	}
	s.mu.Unlock()
}

// sweepShard is the shard timer's callback.
func sweepShard(fm, s any) { fm.(*FlowMemory).sweep(s.(*fmShard)) }

// sweep drops every expired entry of one shard, fires the service-idle
// hooks of services whose last entry went, and re-arms the shard timer
// for the earliest remaining deadline. It runs on the clock's event
// loop and never waits; the hooks scale services down, which takes
// virtual time, so they get a goroutine — only when a service idled.
func (fm *FlowMemory) sweep(s *fmShard) {
	s.mu.Lock()
	s.sweepArmed = false
	now := fm.clk.Now()
	var expired []*memEntry
	var expiredKeys []flowKey
	earliest := time.Time{}
	for key, e := range s.entries {
		if now.Sub(e.lastUsed) >= fm.Idle {
			expired = append(expired, e)
			expiredKeys = append(expiredKeys, key)
			continue
		}
		deadline := e.lastUsed.Add(fm.Idle)
		if earliest.IsZero() || deadline.Before(earliest) {
			earliest = deadline
		}
	}
	// Arrival order makes the drop (and hence hook) order deterministic
	// regardless of map iteration.
	sort.Sort(&entryOrder{entries: expired, keys: expiredKeys})
	var idled []string
	for i, e := range expired {
		e.removed = true
		delete(s.entries, expiredKeys[i])
		if fm.dropCount(e.svcName) {
			idled = append(idled, e.svcName)
		}
	}
	if len(s.entries) > 0 {
		s.sweepArmed = true
		fm.clk.Post2(earliest.Sub(now), sweepShard, fm, s)
	}
	hook := fm.OnServiceIdle
	s.mu.Unlock()
	if hook != nil && len(idled) > 0 {
		fm.clk.Go(func() {
			for _, name := range idled {
				hook(name)
			}
		})
	}
}

// entryOrder sorts parallel expired-entry slices by arrival sequence.
type entryOrder struct {
	entries []*memEntry
	keys    []flowKey
}

func (o *entryOrder) Len() int           { return len(o.entries) }
func (o *entryOrder) Less(i, j int) bool { return o.entries[i].seq < o.entries[j].seq }
func (o *entryOrder) Swap(i, j int) {
	o.entries[i], o.entries[j] = o.entries[j], o.entries[i]
	o.keys[i], o.keys[j] = o.keys[j], o.keys[i]
}

// Touch refreshes the idle timer of (client, service); the controller
// calls it when the switch reports a removed flow, since flow removal
// implies traffic existed until a moment ago.
func (fm *FlowMemory) Touch(client netem.IP, service netem.HostPort) {
	key := flowKey{client, service}
	s := fm.shardFor(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok && !e.removed {
		e.lastUsed = fm.clk.Now()
	}
	s.mu.Unlock()
}

// Forget removes the mapping immediately (used when redirecting future
// requests to a better instance). The service-idle hook never fires
// from explicit removal, only from idle expiry.
func (fm *FlowMemory) Forget(client netem.IP, service netem.HostPort) {
	key := flowKey{client, service}
	s := fm.shardFor(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok || e.removed {
		s.mu.Unlock()
		return
	}
	e.removed = true
	delete(s.entries, key)
	s.mu.Unlock()
	fm.dropCount(e.svcName)
}

// ForgetService drops every mapping of one service that does not point
// at keep (pass an empty instance to drop all).
func (fm *FlowMemory) ForgetService(svcName string, keep cluster.Instance) {
	for i := range fm.shards {
		s := &fm.shards[i]
		var dropped []*memEntry
		s.mu.Lock()
		for key, e := range s.entries {
			if e.svcName == svcName && !e.removed && e.instance != keep {
				e.removed = true
				delete(s.entries, key)
				dropped = append(dropped, e)
			}
		}
		s.mu.Unlock()
		for _, e := range dropped {
			fm.dropCount(e.svcName)
		}
	}
}

// Entry is one memorized flow, as exposed to the health prober.
type Entry struct {
	Client   netem.IP
	Service  netem.HostPort
	SvcName  string
	Instance cluster.Instance
}

// Entries snapshots all memorized flows.
func (fm *FlowMemory) Entries() []Entry {
	return fm.AppendEntries(nil)
}

// AppendEntries is Entries appending to out.
func (fm *FlowMemory) AppendEntries(out []Entry) []Entry {
	out = slices.Grow(out, fm.Len())
	for i := range fm.shards {
		s := &fm.shards[i]
		s.mu.Lock()
		for key, e := range s.entries {
			out = append(out, Entry{
				Client:   key.client,
				Service:  key.service,
				SvcName:  e.svcName,
				Instance: e.instance,
			})
		}
		s.mu.Unlock()
	}
	return out
}

// EntriesFor snapshots the memorized flows of one client, ordered by
// service address. The handover manager re-steers from this list, and
// the fixed order is what keeps flow installation — and hence the whole
// run — deterministic regardless of shard iteration.
func (fm *FlowMemory) EntriesFor(client netem.IP) []Entry {
	var out []Entry
	for i := range fm.shards {
		s := &fm.shards[i]
		s.mu.Lock()
		for key, e := range s.entries {
			if key.client != client || e.removed {
				continue
			}
			out = append(out, Entry{
				Client:   key.client,
				Service:  key.service,
				SvcName:  e.svcName,
				Instance: e.instance,
			})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Service.IP != out[j].Service.IP {
			return out[i].Service.IP < out[j].Service.IP
		}
		return out[i].Service.Port < out[j].Service.Port
	})
	return out
}

// Len reports the number of memorized flows.
func (fm *FlowMemory) Len() int {
	n := 0
	for i := range fm.shards {
		s := &fm.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// ServiceFlows reports the number of memorized flows for one service.
func (fm *FlowMemory) ServiceFlows(svcName string) int {
	cs := fm.countShardFor(svcName)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.counts[svcName]
}
