package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/core"
	"github.com/c3lab/transparentedge/internal/faultinject"
	"github.com/c3lab/transparentedge/internal/metrics"
	"github.com/c3lab/transparentedge/internal/testbed"
	"github.com/c3lab/transparentedge/internal/trace"
)

// workload is one named set of inputs. Each is a fixed configuration of
// an exported internal/testbed entry point; run receives only the seed
// and the size factor (1 = the sizes the README states).
type workload struct {
	Name string
	// Why records the reason the workload exists: which layers do the
	// work on it, and therefore which optimisations it should show and
	// which it should not.
	Why string
	// Op names the unit ops_per_s and allocs_per_op are divided by.
	Op string
	// Virt names the virtual latency samples behind virt_p50_ms/p99.
	Virt string
	// Procs is the GOMAXPROCS the child runs with (never more than the
	// host has): the most, up to the reference host's 2, at which every
	// rep of one seed is bit-identical on the virtual axis. That is 2
	// where one generator goroutine drives the run, and 1 where many
	// client goroutines become runnable at the same virtual instant,
	// because two Ps order them differently from run to run (README,
	// observations).
	Procs int
	run   func(seed int64, scale float64) (*outcome, error)
}

// outcome is what one rep of a workload produced, on the virtual axis:
// everything in it must repeat exactly for a fixed seed and scale.
type outcome struct {
	Ops int64
	// Failed counts the ops that got no answer, by the workload's own
	// definition: failed_share is Failed ÷ Ops, answered_share the rest.
	Failed int64
	// ByDesign counts those of them that are the modelled system's correct
	// answer to its inputs: a duplicate punt the controller coalesces, a
	// request that ends in a classified transport error while a router is
	// down. A run reports the others, Failed − ByDesign, as `failed` — ops
	// that went wrong — so a run of a working program reports 0 whatever
	// its seed and length, while answered_share moves with both kinds.
	ByDesign int64
	// VirtP50 / VirtP99 summarise the workload's virtual latency samples.
	VirtP50, VirtP99 time.Duration
	VirtSamples      int64
	Fingerprint      string
	// Invalid is empty when every correctness check held, else the first
	// violated check.
	Invalid string
	// Stats is the controller accounting (summed over the testbeds a rep
	// builds) behind the core.* count metrics.
	Stats core.Stats
	// Phases holds the figures workload's virtual phase split, by metric
	// name, in milliseconds.
	Phases map[string]float64
}

var workloads = []*workload{
	{
		Name: "load-cold",
		Why:  "every arrival punts and dispatches: the goroutine-per-punt controller path, candidate cache, flow install and timer posting do all the work",
		Op:   "arrival", Virt: "punt-to-release dispatch latency", Procs: 2,
		run: func(seed int64, scale float64) (*outcome, error) {
			return runLoad(testbed.LoadConfig{Flows: scaled(150000, scale, 100), Revisits: -1, Rate: 5000, Seed: seed})
		},
	},
	{
		Name: "load-memhit",
		Why:  "most arrivals are FlowMemory hits that reinstall an idled-out flow instead of scheduling: moves with FlowMemory, not with dispatch",
		Op:   "arrival", Virt: "punt-to-release dispatch latency", Procs: 2,
		run: func(seed int64, scale float64) (*outcome, error) {
			// Flows and the switch idle timeout shrink together so the
			// share of revisits that find their flow idled out (the
			// memory-hit regime) is the same at every scale.
			return runLoad(testbed.LoadConfig{
				Flows: scaled(30000, scale, 100), Revisits: 4, Rate: 5000,
				SwitchFlowIdle: time.Duration(float64(2*time.Second) * scale), Seed: seed,
			})
		},
	},
	{
		Name: "load-switchhit",
		Why:  "98% of arrivals match an installed switch flow, so the controller idles and openflow lookup, idle-timer refresh and netem do the work",
		Op:   "arrival", Virt: "punt-to-release dispatch latency", Procs: 2,
		run: func(seed int64, scale float64) (*outcome, error) {
			return runLoad(testbed.LoadConfig{
				Flows: scaled(20000, scale, 100), Revisits: 49, Rate: 20000,
				SwitchFlowIdle: 10 * time.Minute, MemoryIdle: 20 * time.Minute, Seed: seed,
			})
		},
	},
	{
		Name: "figures",
		Why:  "the paper's evaluation (edgesim -exp all -n 42): the only workload where the deploy substrate, full TCP connections and goroutine-parking vclock do the work",
		Op:   "completed client request", Virt: "first-request time_total of the Fig. 11/12 cells, pooled", Procs: 1,
		run: runFigures,
	},
	{
		Name: "mobility",
		Why:  "live verified TCP sessions under make-before-break handovers: netem connections and Rehome, core.Handover and barriered openflow bundles under table churn",
		Op:   "handover", Virt: "control-plane handover latency", Procs: 1,
		run: runMobility,
	},
	{
		Name: "chaos",
		Why:  "the only workload with lossy links, retransmits, a faulty control channel and the reconciler, and the only one where requests can fail",
		Op:   "request", Virt: "time_total of completed requests", Procs: 1,
		run: runChaos,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// scaled sizes a workload knob: n at scale 1, never below min.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n)*scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// scaledTrace shrinks the bigFlows request trace with the run: the
// capture stays five minutes long (fault windows are absolute offsets
// into it), the hot services and requests thin out.
func scaledTrace(seed int64, scale float64) trace.Config {
	cfg := trace.DefaultBigFlows()
	cfg.Seed = seed
	if scale < 1 {
		cfg.HotServices = scaled(cfg.HotServices, scale, 2)
		cfg.TotalRequests = scaled(cfg.TotalRequests, scale, cfg.HotServices*cfg.MinPerService)
		cfg.NoiseServices = scaled(cfg.NoiseServices, scale, 1)
		cfg.NonHTTPConversations = scaled(cfg.NonHTTPConversations, scale, 1)
	}
	return cfg
}

// fingerprint folds deterministic result fields into one FNV-1a value.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

func (f *fingerprint) add(vs ...int64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		f.h.Write(buf[:])
	}
}

func (f *fingerprint) addSeries(s *metrics.Series) {
	f.add(int64(s.Len()), int64(s.Min()), int64(s.Median()), int64(s.Percentile(99)), int64(s.Max()))
}

func (f *fingerprint) String() string { return fmt.Sprintf("%016x", f.h.Sum64()) }

func runLoad(cfg testbed.LoadConfig) (*outcome, error) {
	res, err := testbed.RunLoad(cfg)
	if err != nil {
		return nil, err
	}
	s := res.Stats
	out := &outcome{
		Ops:         int64(res.Arrivals),
		Failed:      int64(res.Arrivals) - res.DroppedReplies,
		VirtP50:     res.Dispatch.Median(),
		VirtP99:     res.Dispatch.Percentile(99),
		VirtSamples: res.Dispatch.Count(),
		Fingerprint: res.Fingerprint(),
		Stats:       s,
	}
	// Every arrival must be classified: forwarded in-switch or punted,
	// every punt a memory hit, a dispatch or a duplicate the controller
	// coalesced while the flow's earlier punt was in flight. A coalesced
	// duplicate gets no reply of its own, by design; any other arrival
	// without a service reply is a failed op.
	coalesced := s.PacketIns - s.MemoryHits - s.ScheduleCalls
	out.ByDesign = coalesced
	switch {
	case coalesced < 0:
		out.Invalid = fmt.Sprintf("memory hits %d + dispatches %d exceed packet-ins %d", s.MemoryHits, s.ScheduleCalls, s.PacketIns)
	case out.Failed < coalesced:
		out.Invalid = fmt.Sprintf("%d arrivals unanswered but %d coalesced duplicates", out.Failed, coalesced)
	case res.Dispatch.Count() != int64(res.Punts):
		out.Invalid = fmt.Sprintf("%d dispatch samples for %d answered punts", res.Dispatch.Count(), res.Punts)
	case s.CloudForwards != 0:
		out.Invalid = fmt.Sprintf("%d cloud forwards with every service pre-deployed", s.CloudForwards)
	}
	return out, nil
}

var figureServices = []string{"asm", "nginx", "resnet", "nginxpy"}
var figureKinds = []cluster.Kind{cluster.Docker, cluster.Kubernetes}

// runFigures makes the testbed.Run* calls cmd/edgesim makes for
// -exp all -n 42, sequentially, for seeds S and S+1.
func runFigures(seed int64, scale float64) (*outcome, error) {
	f := &figuresRun{
		fp:      newFingerprint(),
		first:   metrics.NewSeries("first-request"),
		waits:   metrics.NewSeries("wait"),
		pulls:   metrics.NewSeries("pull"),
		creates: map[cluster.Kind]*metrics.Series{},
	}
	for _, k := range figureKinds {
		f.creates[k] = metrics.NewSeries("create")
	}
	for _, s := range []int64{seed, seed + 1} {
		if err := f.expAll(s, scale); err != nil {
			return nil, err
		}
	}
	f.out.VirtP50, f.out.VirtP99, f.out.VirtSamples = f.first.Median(), f.first.Percentile(99), int64(f.first.Len())
	f.out.Fingerprint = f.fp.String()
	f.out.Phases = map[string]float64{
		"registry.virt_pull_p50_ms":   ms(f.pulls.Median()),
		"docker.virt_create_p50_ms":   ms(f.creates[cluster.Docker].Median()),
		"kube.virt_create_p50_ms":     ms(f.creates[cluster.Kubernetes].Median()),
		"core.virt_wait_ready_p50_ms": ms(f.waits.Median()),
	}
	return &f.out, nil
}

type figuresRun struct {
	out     outcome
	fp      *fingerprint
	first   *metrics.Series // Fig. 11/12 first-request totals, pooled
	waits   *metrics.Series
	pulls   *metrics.Series
	creates map[cluster.Kind]*metrics.Series
}

// requests accounts one experiment's client requests: those that
// completed (their time_total series) and those that failed.
func (f *figuresRun) requests(done *metrics.Series, failed int) {
	f.out.Ops += int64(done.Len() + failed)
	f.out.Failed += int64(failed)
	f.fp.addSeries(done)
	f.fp.add(int64(failed))
}

func (f *figuresRun) expAll(seed int64, scale float64) error {
	n := scaled(testbed.DefaultDeployments, scale, 2)
	cfg := scaledTrace(seed, scale)

	f.fp.add(int64(len(testbed.TableI().String())))
	// Fig. 9 and Fig. 10 each recover the workload from the capture.
	for i := 0; i < 2; i++ {
		w, err := testbed.RunWorkload(cfg)
		if err != nil {
			return err
		}
		f.fp.add(int64(w.Trace.TotalRequests()), int64(len(w.Trace.Counts)))
	}
	// Figs. 11, 12 (totals) and 14, 15 (waits) each run every cell.
	for _, fig := range []struct{ scaleOnly, pooled bool }{{true, true}, {false, true}, {true, false}, {false, false}} {
		for _, key := range figureServices {
			for _, kind := range figureKinds {
				run := testbed.RunCreateScaleUp
				if fig.scaleOnly {
					run = testbed.RunScaleUp
				}
				res, err := run(key, kind, n, seed)
				if err != nil {
					return err
				}
				f.requests(res.Totals, res.Errors)
				f.fp.addSeries(res.Waits)
				if !fig.pooled {
					continue
				}
				pool(f.first, res.Totals)
				pool(f.waits, res.Waits)
				pool(f.creates[kind], res.Creates)
			}
		}
	}
	for _, key := range figureServices {
		for _, private := range []bool{false, true} {
			res, err := testbed.RunPull(key, private, scaled(10, scale, 2), seed)
			if err != nil {
				return err
			}
			f.fp.addSeries(res.Times)
			pool(f.pulls, res.Times)
		}
	}
	for _, key := range figureServices {
		for _, kind := range figureKinds {
			res, err := testbed.RunWarm(key, kind, scaled(testbed.DefaultWarmRequests, scale, 2), seed)
			if err != nil {
				return err
			}
			f.requests(res.Totals, 0)
		}
	}
	acc, err := testbed.RunAccessOverhead("asm", scaled(20, scale, 2), seed)
	if err != nil {
		return err
	}
	for _, s := range []*metrics.Series{acc.Direct, acc.WarmFlow, acc.MemoryHit, acc.ColdDispatch} {
		f.requests(s, 0)
	}
	tr, err := testbed.RunTraceReplay("nginx", cluster.Docker, cfg, seed)
	if err != nil {
		return err
	}
	f.requests(tr.Totals, cfg.TotalRequests-tr.Totals.Len())
	f.out.Stats = f.out.Stats.Add(tr.Stats)
	for _, faults := range []faultinject.Config{{Seed: seed}, testbed.DefaultFaultConfig(seed)} {
		res, err := testbed.RunFaultReplay("nginx", cfg, faults, seed)
		if err != nil {
			return err
		}
		f.requests(res.Totals, res.Errors)
		f.out.Stats = f.out.Stats.Add(res.Stats)
	}
	for _, clients := range []int{20, 100, 250} {
		res, err := testbed.RunScale("nginx", scaled(clients, scale, 2), seed)
		if err != nil {
			return err
		}
		f.requests(res.Cold, 0)
		f.requests(res.Warm, 0)
		f.out.Stats = f.out.Stats.Add(res.Stats)
	}
	return nil
}

func pool(dst, src *metrics.Series) {
	for _, d := range src.Samples() {
		dst.Add(d)
	}
}

func runMobility(seed int64, scale float64) (*outcome, error) {
	res, err := testbed.RunMobility(testbed.MobilityConfig{
		Clients: 8, Handovers: scaled(24000, scale, 16), Interval: 250 * time.Millisecond, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	s := res.Stats
	fp := newFingerprint()
	fp.add(int64(res.Rounds), res.VerifiedBytes, int64(res.Checksum), s.Handovers, s.ReSteeredFlows,
		s.PacketIns, s.MemoryHits, s.FlowsInstalled, int64(res.HandoverLat.Median()), int64(res.HandoverLat.Percentile(99)))
	out := &outcome{
		Ops:         int64(res.Config.Handovers),
		Failed:      s.ContinuityBreaks + int64(res.AuditA+res.AuditB),
		VirtP50:     res.HandoverLat.Median(),
		VirtP99:     res.HandoverLat.Percentile(99),
		VirtSamples: res.HandoverLat.Count(),
		Fingerprint: fp.String(),
		Stats:       s,
	}
	if out.Failed != 0 {
		out.Invalid = fmt.Sprintf("%d continuity breaks, post-run audit %d/%d", s.ContinuityBreaks, res.AuditA, res.AuditB)
	}
	return out, nil
}

func runChaos(seed int64, scale float64) (*outcome, error) {
	res, err := testbed.RunChaos("nginx", scaledTrace(seed, scale), testbed.DefaultChaosConfig(seed), seed)
	if err != nil {
		return nil, err
	}
	// On one P even the three counters TestChaosDeterminism masks
	// (same-instant goroutine races feed them) repeat exactly.
	s := res.Stats
	fp := newFingerprint()
	fp.add(int64(res.Requests), int64(res.Completed), int64(res.Failed), int64(res.Unclassified),
		s.Retries, s.ResyncRuns, s.ReinstalledFlows, s.OrphanFlowsRemoved, s.ChannelDrops)
	fp.addSeries(res.Totals)
	out := &outcome{
		Ops:         int64(res.Requests),
		Failed:      int64(res.Failed + res.Unclassified),
		ByDesign:    int64(res.Failed), // classified transport errors under injected faults
		VirtP50:     res.Totals.Median(),
		VirtP99:     res.Totals.Percentile(99),
		VirtSamples: int64(res.Totals.Len()),
		Fingerprint: fp.String(),
		Stats:       s,
	}
	if !res.InvariantsOK() {
		out.Invalid = fmt.Sprintf("chaos invariants: unclassified=%d leaked=%d converged=%v", res.Unclassified, res.LeakedPackets, res.Converged)
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
