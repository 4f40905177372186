package testbed

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"github.com/c3lab/transparentedge/internal/catalog"
	"github.com/c3lab/transparentedge/internal/core"
	"github.com/c3lab/transparentedge/internal/metrics"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// LoadConfig sizes the open-loop load experiment: an arrival process
// injected straight into the ingress switch, exercising the intercept →
// punt → dispatch → flow-install pipeline (and the scheduler's timer
// population behind it) at flow counts no per-client goroutine swarm
// could reach.
type LoadConfig struct {
	// ServiceKey is the catalog service every registered service runs
	// (default nginx — the paper's single-service-type-per-run setup).
	ServiceKey string
	// Flows is the number of distinct synthetic client flows (default
	// 20000). Each flow gets its own CGNAT source address, its own
	// FlowMemory entry, and its own pair of switch flows with idle
	// timers.
	Flows int
	// Rate is the mean arrival rate in flows-per-second of the Poisson
	// process (default 5000/s, so a default run outlives SwitchFlowIdle
	// and the revisit phase reaches the memory-hit regime). Open loop:
	// arrival instants are drawn from the exponential inter-arrival
	// distribution and never slowed by the system under test.
	Rate float64
	// Revisits is the mean number of extra arrivals per flow after its
	// first (default 1.0). Revisits land after the cold phase, when
	// early switch flows have idled out but the FlowMemory still holds
	// the mapping — the memory-hit regime.
	Revisits float64
	// Services spreads the flows over this many registered services
	// (default 8), assigned per flow by a Zipf draw over service rank.
	Services int
	// ZipfS is the Zipf exponent of the service popularity distribution
	// (default 1.1; larger = more skew toward service 0).
	ZipfS float64
	// SwitchFlowIdle / MemoryIdle override the controller timeouts
	// (defaults 2s / 5min) — together with Rate they set how many idle
	// timers stay pending, which is the timer-wheel's workload.
	SwitchFlowIdle time.Duration
	MemoryIdle     time.Duration
	// Seed drives the arrival process and the service assignment.
	Seed int64
	// Shards splits the run across this many cores (default 1 =
	// sequential). The partition is by service: each shard replays the
	// identical arrival schedule on its own clock and testbed replica
	// but injects only the flows of the services assigned to it (a
	// deterministic balanced assignment over the Zipf popularity
	// weights — see shardServices). Per-shard results merge exactly:
	// every deterministic field of the LoadResult is byte-identical to
	// the sequential run (see Fingerprint).
	//
	// Services — not flows — are the finest partition that preserves
	// the run exactly, because the controller's candidate-snapshot
	// cache is keyed per service: a dispatch's virtual cost depends on
	// whether an earlier arrival of the same service warmed the cache,
	// so all of a service's arrivals must replay on one clock. Distinct
	// services never exchange virtual time (RunLoad pins the Docker API
	// jitter, the one cross-service coupling), so the partition has no
	// cross-shard edges: the shards are independent clocks that never
	// synchronize until the merge.
	Shards int
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.ServiceKey == "" {
		c.ServiceKey = "nginx"
	}
	if c.Flows <= 0 {
		c.Flows = 20000
	}
	if c.Rate <= 0 {
		c.Rate = 5000
	}
	if c.Revisits < 0 {
		c.Revisits = 0
	} else if c.Revisits == 0 {
		c.Revisits = 1
	}
	if c.Services <= 0 {
		c.Services = 8
	}
	if c.ZipfS <= 0 {
		c.ZipfS = 1.1
	}
	if c.SwitchFlowIdle <= 0 {
		c.SwitchFlowIdle = 2 * time.Second
	}
	if c.MemoryIdle <= 0 {
		c.MemoryIdle = 5 * time.Minute
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// LoadResult is the outcome of one open-loop run. Everything except
// Wall is deterministic for a given config.
type LoadResult struct {
	Config LoadConfig
	// Arrivals is the number of packets injected:
	// Flows × (1 + Revisits).
	Arrivals int
	// Punts counts arrivals that reached the controller (no switch flow
	// matched) and were answered with a PacketOut; Dispatch holds their
	// punt-to-release latencies in a streaming histogram, so the
	// latency-recording memory is a fixed ~29 KiB however many arrivals
	// the run injects (quantiles carry the histogram's documented ≤1/64
	// relative bin error; exact Series remain the backend for the
	// paper-figure experiments).
	Punts    int
	Dispatch *metrics.Hist
	// VirtualDuration is the simulated span of the arrival process.
	VirtualDuration time.Duration
	// Wall is the host time the injection loop took — throughput
	// reporting only, never part of deterministic output.
	Wall time.Duration
	// Stats is the controller's accounting after the run has settled.
	Stats core.Stats
	// ServiceArrivals is the per-service arrival count (the realized
	// Zipf popularity).
	ServiceArrivals []int
	// DroppedReplies counts reply segments (RSTs to synthetic flow
	// addresses) absorbed by the injection host — the expected fate of
	// every reply, since synthetic flows have no TCP state.
	DroppedReplies int64
	// PeakHeap is the largest live-heap size (runtime.MemStats.HeapAlloc)
	// sampled during the injection loop — the scale regression signal.
	// Host- and GC-dependent: reported on stderr, never part of the
	// deterministic output.
	PeakHeap uint64
}

// loadFlowBase is the first synthetic client address: the CGNAT block
// 100.64.0.0/10, disjoint from every real testbed host so flow sources
// can never collide with clients, infrastructure, or service addresses.
var loadFlowBase = netem.ParseIP("100.64.0.0")

// loadFlowMask is the CGNAT block's /10 network mask: one range route
// covers every synthetic source the engine can ever mint.
var loadFlowMask = netem.ParseIP("255.192.0.0")

// loadInjectPort is the switch port synthetic flow addresses route to.
// Routing the flows matters: the main switch default-routes unknown
// destinations to the cloud uplink and the cloud router default-routes
// them back, so a reply to an unrouted synthetic address would
// ping-pong on that link forever. The whole block is routed by a single
// range entry — a per-flow host route would cost a map entry and a
// microflow-cache-invalidating epoch bump per debut, which at millions
// of flows is exactly the kind of measurement overhead this engine
// exists to avoid.
const loadInjectPort = 1

// loadHeapSampleEvery is the injection-loop interval between
// runtime.MemStats peak-heap samples. ReadMemStats stops the world, so
// it must stay far off the per-arrival path.
const loadHeapSampleEvery = 1 << 16

// RunLoad drives the open-loop Poisson/Zipf arrival process against a
// pre-deployed testbed. Per-flow state is two flat arrays (service
// assignment and arrival counts) — no goroutine, connection, or timer
// per client on the generator side; the single generator goroutine
// walks the arrival schedule and injects bare segments directly into
// the ingress switch. Each first arrival punts, dispatches, and
// installs a redirect pair whose idle timers (plus the FlowMemory
// expiry) are exactly the pending-timer population the hierarchical
// timing wheel exists to serve.
//
// The run is cfg.Shards replicas, each on its own clock (see
// LoadConfig.Shards), folded by mergeLoadResults — the identity for one
// shard; every deterministic field of the result is the same for every
// shard count.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	cfg = cfg.withDefaults()
	wallStart := time.Now()
	parts, err := RunParallel(cfg.Shards, cfg.Shards, func(shard int) (*LoadResult, error) {
		res := newLoadResult(cfg)
		clk := vclock.New()
		var err error
		clk.Run(func() { err = runLoadShard(clk, cfg, shard, cfg.Shards, res) })
		return res, err
	})
	if err != nil {
		return nil, err
	}
	res := mergeLoadResults(parts)
	res.Wall = time.Since(wallStart)
	return res, nil
}

func newLoadResult(cfg LoadConfig) *LoadResult {
	return &LoadResult{
		Config:          cfg,
		Dispatch:        metrics.NewHist("punt-dispatch"),
		ServiceArrivals: make([]int, cfg.Services),
	}
}

// shardServices deterministically assigns services to shards, balancing
// the expected arrival load: a longest-processing-time greedy over the
// Zipf popularity weights (services arrive in rank order, which is
// decreasing-weight order). The assignment is a pure function of the
// config, so every shard — and the sequential reference run — computes
// the identical partition.
func shardServices(services int, zipfS float64, shards int) []int {
	owner := make([]int, services)
	if shards <= 1 {
		return owner
	}
	cdf := zipfCDF(services, zipfS)
	load := make([]float64, shards)
	for si := 0; si < services; si++ {
		w := cdf[si]
		if si > 0 {
			w -= cdf[si-1]
		}
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		owner[si] = best
		load[best] += w
	}
	return owner
}

// runLoadShard is one shard's share of a load run: a full testbed
// replica on its own clock, replaying the whole arrival schedule but
// injecting only the flows of the services this shard owns (shard 0 of
// 1 is the sequential run). The shared rng stream is consumed
// identically on every shard — gap, revisit, and service draws included
// — so arrival instants and service assignments are the sequential ones
// regardless of the partition; only the injections are filtered.
// Services are mutually independent in this workload (per-flow CGNAT
// sources, switch entries, and FlowMemory rows; a per-service candidate
// cache; constant control-channel and pinned Docker API latencies), so
// each shard's counters and latencies are exactly the sequential run's
// restricted to its services, and summing them reproduces the whole.
func runLoadShard(clk *vclock.Virtual, cfg LoadConfig, shard, shards int, res *LoadResult) error {
	tb, err := New(clk, Options{
		WithDocker:     true,
		Clients:        2,
		SwitchFlowIdle: cfg.SwitchFlowIdle,
		MemoryIdle:     cfg.MemoryIdle,
		Seed:           cfg.Seed,
		PinAPIJitter:   true,
	})
	if err != nil {
		return err
	}
	svc, err := catalog.ByKey(cfg.ServiceKey)
	if err != nil {
		return err
	}
	handles, err := tb.RegisterMany(svc, cfg.Services)
	if err != nil {
		return err
	}
	// Pre-deploy every service: the experiment measures the
	// transparent-access control plane at scale, not container
	// start-up.
	for _, h := range handles {
		if err := tb.PrePull(h, "edge-docker"); err != nil {
			return err
		}
		if _, err := tb.Controller.PreDeploy(h.Addr, "edge-docker"); err != nil {
			return err
		}
	}

	sw := tb.Switch
	inPort := sw.Port(loadInjectPort)
	rng := vclock.NewRand(cfg.Seed + 97)
	// Per-draw service assignment: one uniform per draw, inverted
	// through the popularity CDF by binary search.
	cdf := zipfCDF(cfg.Services, cfg.ZipfS)
	// One range route covers the whole CGNAT flow block.
	sw.AddRouteRange(loadFlowBase, loadFlowMask, loadInjectPort)

	// Compact per-flow state: the service each flow talks to
	// (assigned on first arrival), nothing else. Every shard tracks all
	// flows — assignments must come out of the shared stream in schedule
	// order.
	svcOf := make([]int32, cfg.Flows)
	for i := range svcOf {
		svcOf[i] = -1
	}
	owner := shardServices(cfg.Services, cfg.ZipfS, shards)

	start := clk.Now()
	var mu sync.Mutex
	punts := 0
	// Arrival instants ride inside the packet: the punt clone
	// preserves Seq/Ack, so the hook measures exactly the punted
	// packet's hold time — no per-flow stamp to go stale when an
	// arrival is forwarded in-switch instead.
	sw.SetPacketOutHook(func(pkt *netem.Packet, _ int) {
		sent := time.Duration(uint64(pkt.Seq)<<32 | uint64(pkt.Ack))
		lat := clk.Now().Sub(start) - sent
		mu.Lock()
		punts++
		res.Dispatch.Record(lat)
		mu.Unlock()
	})

	var ms runtime.MemStats
	sampleHeap := func() {
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > res.PeakHeap {
			res.PeakHeap = ms.HeapAlloc
		}
	}

	total := cfg.Flows + int(float64(cfg.Flows)*cfg.Revisits+0.5)
	wallStart := time.Now()
	next := start
	for k := 0; k < total; k++ {
		gap := time.Duration(rng.ExpFloat64() * float64(time.Second) / cfg.Rate)
		next = next.Add(gap)
		// Cold phase first (every flow's debut, in order), then
		// uniformly random revisits.
		flow := k
		if flow >= cfg.Flows {
			flow = rng.Intn(cfg.Flows)
		}
		si := svcOf[flow]
		if si < 0 {
			si = int32(zipfPick(cdf, rng.Float64()))
			svcOf[flow] = si
		}
		if owner[si] != shard {
			continue
		}
		if d := next.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		res.ServiceArrivals[si]++
		ns := uint64(clk.Now().Sub(start))
		pkt := netem.NewPacket()
		pkt.Src = netem.HostPort{IP: loadFlowBase + netem.IP(flow), Port: 40000}
		pkt.Dst = handles[si].Addr
		pkt.ConnID = uint64(flow) + 1
		pkt.Seq = uint32(ns >> 32)
		pkt.Ack = uint32(ns)
		sw.HandlePacket(pkt, inPort)
		if k%loadHeapSampleEvery == 0 {
			sampleHeap()
		}
	}
	res.Arrivals = total
	// Align on the schedule's final arrival instant — a shard whose last
	// owned arrival came earlier must still settle and snapshot at the
	// same global virtual time as every other.
	if d := next.Sub(clk.Now()); d > 0 {
		clk.Sleep(d)
	}
	res.VirtualDuration = clk.Since(start)
	res.Wall = time.Since(wallStart)
	sampleHeap()

	// Settle: let held punts, packet-outs, and reply RSTs drain
	// before snapshotting.
	clk.Sleep(2 * time.Second)
	// One final sample after the drain: short runs (under the sampling
	// interval) would otherwise report only what the k=0 sample saw,
	// before the run allocated anything.
	sampleHeap()
	sw.SetPacketOutHook(nil)
	mu.Lock()
	res.Punts = punts
	mu.Unlock()
	res.Stats = tb.Controller.Stats()
	res.DroppedReplies = tb.Client(0).Dropped()
	return nil
}

// mergeLoadResults folds per-shard results into the whole-run result in
// shard order. Counters sum (each shard counted only its own flows),
// histograms merge exactly (Hist.Merge is order-independent), schedule
// facts (Arrivals, VirtualDuration) are asserted equal across shards,
// and host-dependent fields take the maximum (PeakHeap) — Wall is
// overwritten by the caller with the whole fan-out's span.
func mergeLoadResults(parts []*LoadResult) *LoadResult {
	res := parts[0]
	for _, p := range parts[1:] {
		if p.Arrivals != res.Arrivals || p.VirtualDuration != res.VirtualDuration {
			panic(fmt.Sprintf("testbed: shard replay diverged: arrivals %d/%d, span %v/%v",
				p.Arrivals, res.Arrivals, p.VirtualDuration, res.VirtualDuration))
		}
		res.Punts += p.Punts
		res.Dispatch.Merge(p.Dispatch)
		res.Stats = res.Stats.Add(p.Stats)
		res.DroppedReplies += p.DroppedReplies
		for i, a := range p.ServiceArrivals {
			res.ServiceArrivals[i] += a
		}
		if p.PeakHeap > res.PeakHeap {
			res.PeakHeap = p.PeakHeap
		}
	}
	return res
}

// Fingerprint hashes every deterministic field of the result: the
// shard-invariance and determinism gates compare runs by this one
// value. Host-dependent fields (Wall, PeakHeap) are excluded, as is one
// controller counter that is deterministic per run but not
// partition-invariant: FlowRemovedMsgs counts idle evictions whose
// reverse-path instants ride reply RSTs through shared bandwidth-
// limited links, so an eviction landing within a sub-microsecond
// queueing shift of the settle boundary can fall on either side of the
// snapshot. It feeds no figure or printed load metric.
func (r *LoadResult) Fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	w(int64(r.Arrivals))
	w(int64(r.Punts))
	w(r.Dispatch.Count())
	w(int64(r.Dispatch.Min()))
	w(int64(r.Dispatch.Median()))
	w(int64(r.Dispatch.Percentile(99)))
	w(int64(r.Dispatch.Max()))
	w(int64(r.Dispatch.Mean()))
	w(int64(r.VirtualDuration))
	w(r.Stats.PacketIns)
	w(r.Stats.MemoryHits)
	w(r.Stats.ScheduleCalls)
	w(r.Stats.FlowsInstalled)
	w(r.Stats.CloudForwards)
	w(r.Stats.CandidateHits)
	w(r.Stats.CandidateMisses)
	w(r.DroppedReplies)
	for _, n := range r.ServiceArrivals {
		w(int64(n))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
