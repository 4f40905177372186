package core

import (
	"slices"
	"sort"
	"sync"
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
// Entries sit on one list in last-use order: every use — Lookup, Touch,
// Remember — stamps the entry and moves it to the tail, so the list is
// sorted by deadline (lastUsed+Idle) and expiry only ever looks at its
// head. One timer, armed for the head's deadline, serves any number of
// memorized flows; an entry still expires exactly at its own deadline,
// because a sweep re-arms for the new head's.
type FlowMemory struct {
	clk *vclock.Virtual
	// Idle is the memory-side idle timeout.
	Idle time.Duration
	// OnServiceIdle, if set, fires when the last memorized flow of a
	// service expires — the scale-down hook.
	OnServiceIdle func(service string)

	mu      sync.Mutex
	entries map[flowKey]*memEntry
	// counts is the number of entries per service name.
	counts map[string]int
	// lru is the list's sentinel: lru.next is the least recently used
	// entry, lru.prev the most recently used one.
	lru memEntry
	// sweepArmed reports whether the expiry timer is pending. Deadlines
	// only move later, so a pending timer is never late for the head.
	sweepArmed bool
	// gen counts the changes to the set of mappings: every Remember and
	// every drop. Uses only reorder the list, so they leave it alone.
	// The reconciler reads it as part of its desired-state generation.
	gen uint64
}

type flowKey struct {
	client  netem.IP
	service netem.HostPort
}

type memEntry struct {
	key        flowKey
	instance   cluster.Instance
	svcName    string
	lastUsed   time.Time
	prev, next *memEntry
}

// NewFlowMemory returns an empty memory with the given idle timeout.
func NewFlowMemory(clk *vclock.Virtual, idle time.Duration) *FlowMemory {
	fm := &FlowMemory{
		clk:     clk,
		Idle:    idle,
		entries: make(map[flowKey]*memEntry),
		counts:  make(map[string]int),
	}
	fm.lru.prev, fm.lru.next = &fm.lru, &fm.lru
	return fm
}

// use stamps e and moves it to the list's tail.
func (fm *FlowMemory) use(e *memEntry) {
	e.lastUsed = fm.clk.Now()
	if e.next != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	}
	e.prev, e.next = fm.lru.prev, &fm.lru
	e.prev.next, fm.lru.prev = e, e
}

// drop removes e and reports whether it was its service's last entry.
func (fm *FlowMemory) drop(e *memEntry) (idle bool) {
	fm.gen++
	delete(fm.entries, e.key)
	e.prev.next, e.next.prev = e.next, e.prev
	return fm.dropCount(e.svcName)
}

// dropCount decrements a service's count and reports whether it
// reached zero.
func (fm *FlowMemory) dropCount(svcName string) (idle bool) {
	fm.counts[svcName]--
	if fm.counts[svcName] > 0 {
		return false
	}
	delete(fm.counts, svcName)
	return true
}

// Lookup returns the memorized instance for (client, service) and
// refreshes its idle timer.
func (fm *FlowMemory) Lookup(client netem.IP, service netem.HostPort) (cluster.Instance, bool) {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	e, ok := fm.entries[flowKey{client, service}]
	if !ok {
		return cluster.Instance{}, false
	}
	fm.use(e)
	return e.instance, true
}

// Remember stores (or replaces) the mapping for (client, service).
// Replacing an entry registered under a different service name re-tags
// it, so the per-service counts driving idle scale-down stay exact; the
// old name's hook does not fire, whatever its count drops to.
func (fm *FlowMemory) Remember(client netem.IP, service netem.HostPort, svcName string, inst cluster.Instance) {
	key := flowKey{client, service}
	fm.mu.Lock()
	defer fm.mu.Unlock()
	e, ok := fm.entries[key]
	if ok {
		fm.dropCount(e.svcName)
	} else {
		e = &memEntry{key: key}
		fm.entries[key] = e
	}
	fm.counts[svcName]++
	e.instance, e.svcName = inst, svcName
	fm.use(e)
	fm.gen++
	if fm.Idle > 0 && !fm.sweepArmed {
		// No timer pending: the memory was empty, e is the head.
		fm.sweepArmed = true
		fm.clk.Post2(fm.Idle, sweepFlowMemory, fm, nil)
	}
}

// sweepFlowMemory is the expiry timer's callback.
func sweepFlowMemory(fm, _ any) { fm.(*FlowMemory).sweep() }

// sweep pops the expired entries off the head of the list, fires the
// service-idle hooks of services whose last entry went, and re-arms the
// timer for the new head's deadline. It runs on the clock's event loop
// and never waits; the hooks scale services down, which takes virtual
// time, so they get a goroutine — one, on which they run in the order
// their services idled — only when a service idled.
func (fm *FlowMemory) sweep() {
	fm.mu.Lock()
	fm.sweepArmed = false
	now := fm.clk.Now()
	var idled []string
	for e := fm.lru.next; e != &fm.lru && now.Sub(e.lastUsed) >= fm.Idle; e = fm.lru.next {
		if fm.drop(e) {
			idled = append(idled, e.svcName)
		}
	}
	if head := fm.lru.next; head != &fm.lru {
		fm.sweepArmed = true
		fm.clk.Post2(head.lastUsed.Add(fm.Idle).Sub(now), sweepFlowMemory, fm, nil)
	}
	hook := fm.OnServiceIdle
	fm.mu.Unlock()
	if hook != nil && len(idled) > 0 {
		fm.clk.Go(func() {
			for _, name := range idled {
				hook(name)
			}
		})
	}
}

// Touch refreshes the idle timer of (client, service); the controller
// calls it when the switch reports a removed flow, since flow removal
// implies traffic existed until a moment ago.
func (fm *FlowMemory) Touch(client netem.IP, service netem.HostPort) {
	fm.mu.Lock()
	if e, ok := fm.entries[flowKey{client, service}]; ok {
		fm.use(e)
	}
	fm.mu.Unlock()
}

// Forget removes the mapping immediately (used when redirecting future
// requests to a better instance). The service-idle hook never fires
// from explicit removal, only from idle expiry.
func (fm *FlowMemory) Forget(client netem.IP, service netem.HostPort) {
	fm.mu.Lock()
	if e, ok := fm.entries[flowKey{client, service}]; ok {
		fm.drop(e)
	}
	fm.mu.Unlock()
}

// ForgetService drops every mapping of one service that does not point
// at keep (pass an empty instance to drop all).
func (fm *FlowMemory) ForgetService(svcName string, keep cluster.Instance) {
	fm.mu.Lock()
	for e := fm.lru.next; e != &fm.lru; {
		next := e.next
		if e.svcName == svcName && e.instance != keep {
			fm.drop(e)
		}
		e = next
	}
	fm.mu.Unlock()
}

// Entry is one memorized flow, as exposed to the health prober.
type Entry struct {
	Client   netem.IP
	Service  netem.HostPort
	SvcName  string
	Instance cluster.Instance
}

// Entries snapshots all memorized flows, least recently used first.
func (fm *FlowMemory) Entries() []Entry {
	return fm.AppendEntries(nil)
}

// AppendEntries is Entries appending to out.
func (fm *FlowMemory) AppendEntries(out []Entry) []Entry {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	out = slices.Grow(out, len(fm.entries))
	for e := fm.lru.next; e != &fm.lru; e = e.next {
		out = append(out, e.entry())
	}
	return out
}

func (e *memEntry) entry() Entry {
	return Entry{Client: e.key.client, Service: e.key.service, SvcName: e.svcName, Instance: e.instance}
}

// EntriesFor snapshots the memorized flows of one client, ordered by
// service address. The handover manager re-steers from this list, in
// an order that does not depend on which of the flows was used last.
func (fm *FlowMemory) EntriesFor(client netem.IP) []Entry {
	var out []Entry
	fm.mu.Lock()
	for e := fm.lru.next; e != &fm.lru; e = e.next {
		if e.key.client == client {
			out = append(out, e.entry())
		}
	}
	fm.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Service.IP != out[j].Service.IP {
			return out[i].Service.IP < out[j].Service.IP
		}
		return out[i].Service.Port < out[j].Service.Port
	})
	return out
}

// generation reads gen (see there).
func (fm *FlowMemory) generation() uint64 {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	return fm.gen
}

// Len reports the number of memorized flows.
func (fm *FlowMemory) Len() int {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	return len(fm.entries)
}

// ServiceFlows reports the number of memorized flows for one service.
func (fm *FlowMemory) ServiceFlows(svcName string) int {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	return fm.counts[svcName]
}
