package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// candCache memoizes the Dispatcher's candidate gathering per
// (service, ingress zone) for a short TTL. Without it, every packet-in
// that misses the FlowMemory interrogates every cluster
// (Instances/Created/HasImages/CanHost) — four virtual calls per
// cluster per request, all touching per-cluster locks. Under a
// packet-in storm for the same service the answers are identical, so
// one gathered snapshot serves every miss in the window.
//
// Freshness has two guards:
//
//   - a TTL in simulation time, so an idle cache cannot serve
//     arbitrarily old cluster state; and
//   - a global epoch, bumped by every controller action that changes
//     what a gather would see (deployment completion or failure,
//     scale-down, breaker transition, health eviction, registration).
//     Any bump invalidates every snapshot at once — invalidation is
//     deliberately coarse: correctness never depends on the cache,
//     only the miss path's cost does.
type candCache struct {
	ttl   time.Duration
	epoch atomic.Uint64

	mu sync.Mutex
	m  map[candKey]candEntry
}

type candKey struct {
	service string
	zone    string
}

type candEntry struct {
	epoch      uint64
	expires    time.Time
	candidates []Candidate
}

// newCandCache returns a cache with the given TTL; a non-positive TTL
// disables caching entirely (every get misses).
func newCandCache(ttl time.Duration) *candCache {
	return &candCache{ttl: ttl, m: make(map[candKey]candEntry)}
}

// bump invalidates every cached snapshot: cluster state changed.
func (c *candCache) bump() { c.epoch.Add(1) }

// get returns the cached candidate snapshot for (service, zone) if it
// is both within its TTL and from the current epoch. The returned slice
// is shared and must be treated as read-only (the schedulers copy
// before sorting).
func (c *candCache) get(service, zone string, now time.Time) ([]Candidate, bool) {
	if c.ttl <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[candKey{service: service, zone: zone}]
	if !ok || e.epoch != c.epoch.Load() || !now.Before(e.expires) {
		return nil, false
	}
	return e.candidates, true
}

// put stores a freshly gathered snapshot. The epoch is re-read at store
// time: a concurrent bump between gather and put leaves the entry
// already stale, which is the safe direction.
func (c *candCache) put(service, zone string, now time.Time, cands []Candidate) {
	if c.ttl <= 0 {
		return
	}
	c.mu.Lock()
	c.m[candKey{service: service, zone: zone}] = candEntry{
		epoch:      c.epoch.Load(),
		expires:    now.Add(c.ttl),
		candidates: cands,
	}
	c.mu.Unlock()
}
