// Package faultinject provides seeded, deterministic fault injection
// for the emulated edge continuum. A Plan wraps the controller-facing
// seams — any cluster.Cluster (per-phase error and latency injection,
// timed cluster outage windows, transient probe refusals) and the
// registry Remote (manifest failures, slow-registry mode) — so every
// failure mode a resilience experiment needs is reproducible from one
// seed.
//
// Determinism does not depend on goroutine interleaving: instead of one
// shared random stream, the Plan derives an independent vclock RNG per
// (phase, cluster, service) key. Each key's draw sequence is consumed
// by the sequential retry/poll loop that owns it, so the set of
// injected faults — and therefore every downstream Stats counter — is
// identical on every run with the same seed.
package faultinject

import (
	"sync"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// Config parameterizes a fault plan. Zero rates and durations inject
// nothing, so the zero Config is a transparent pass-through.
type Config struct {
	// Seed drives every injection decision.
	Seed int64

	// PullFailRate / CreateFailRate / ScaleUpFailRate are the
	// probabilities that one Pull / Create / ScaleUp call fails with an
	// injected error (the inner operation is not performed).
	PullFailRate    float64
	CreateFailRate  float64
	ScaleUpFailRate float64
	// ProbeRefuseRate is the probability that one Instances call hides
	// the cluster's instances — the controller's readiness probe then
	// sees a not-yet-ready instance and keeps polling.
	ProbeRefuseRate float64

	// PullLatency / CreateLatency / ScaleUpLatency are added to every
	// corresponding call before it proceeds (slow control plane).
	PullLatency    time.Duration
	CreateLatency  time.Duration
	ScaleUpLatency time.Duration

	// Outages are timed windows during which a cluster's control plane
	// is unreachable: Pull/Create/ScaleUp fail and Instances reports
	// nothing.
	Outages []Outage

	// ManifestFailRate is the probability that one registry manifest
	// fetch fails after its round trip (registry hiccup).
	ManifestFailRate float64
	// SlowLayerRate is the probability that one layer download enters
	// slow-registry mode and stalls for RegistryDelay on top of the
	// modelled transfer time.
	SlowLayerRate float64
	// RegistryDelay is the extra latency of slow-registry mode; it is
	// also added to every manifest fetch when ManifestFailRate or
	// SlowLayerRate is set and the draw selects slowness.
	RegistryDelay time.Duration
}

// Outage is one cluster unavailability window, expressed as offsets
// from the Plan's creation time.
type Outage struct {
	// Cluster names the affected cluster; empty matches every wrapped
	// cluster.
	Cluster string
	// Start and End delimit the window (Start inclusive, End exclusive).
	Start time.Duration
	End   time.Duration
}

// Stats counts the faults a plan actually injected.
type Stats struct {
	PullFailures    int64
	CreateFailures  int64
	ScaleUpFailures int64
	ProbeRefusals   int64
	OutageErrors    int64
	ManifestErrors  int64
	SlowLayers      int64
}

// Plan is one seeded fault scenario. Wrap the components under test
// with WrapCluster / WrapRemote; the plan tracks what it injected.
type Plan struct {
	clk   *vclock.Virtual
	cfg   Config
	start time.Time

	streams vclock.Streams

	mu    sync.Mutex
	stats Stats
}

// NewPlan returns a plan anchored at the clock's current time (outage
// windows are offsets from this instant).
func NewPlan(clk *vclock.Virtual, cfg Config) *Plan {
	return &Plan{
		clk:   clk,
		cfg:   cfg,
		start: clk.Now(),
	}
}

// Config returns the plan's configuration.
func (p *Plan) Config() Config { return p.cfg }

// Stats returns a snapshot of the injected-fault counters.
func (p *Plan) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// count mutates one injection counter under the lock.
func (p *Plan) count(f func(*Stats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}

// roll draws the next value of key's dedicated stream and reports
// whether the fault fires.
func (p *Plan) roll(rate float64, key string) bool {
	if rate <= 0 {
		return false
	}
	return p.streams.Stream(p.cfg.Seed, key).Float64() < rate
}

// inOutage reports whether cluster is inside any configured outage
// window at the current time.
func (p *Plan) inOutage(cluster string) bool {
	if len(p.cfg.Outages) == 0 {
		return false
	}
	at := p.clk.Since(p.start)
	for _, o := range p.cfg.Outages {
		if o.Cluster != "" && o.Cluster != cluster {
			continue
		}
		if at >= o.Start && at < o.End {
			return true
		}
	}
	return false
}
