// Command edgesim regenerates every table and figure of the paper's
// evaluation on the emulated C³ testbed.
//
// Usage:
//
//	edgesim -exp all                 # everything
//	edgesim -exp fig11 -n 42         # one figure, full 42 deployments
//	edgesim -exp fig13 -service nginx
//
// Absolute numbers come from the calibrated timing model; the shape
// (who wins, by what factor) is the reproduced result. See
// EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"slices"
	"strings"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/faultinject"
	"github.com/c3lab/transparentedge/internal/metrics"
	"github.com/c3lab/transparentedge/internal/testbed"
	"github.com/c3lab/transparentedge/internal/trace"
)

var allServices = []string{"asm", "nginx", "resnet", "nginxpy"}

// experiments is every -exp value except "all", in the order -exp all
// prints them. inAll is false for chaos, load and mobility: they carry
// their own flags (and load host-dependent stderr lines), while the -exp
// all output must stay byte-identical run to run.
var experiments = []struct {
	name  string
	inAll bool
	run   func(*evaluation) error
}{
	{"tableI", true, (*evaluation).tableI},
	{"fig9", true, (*evaluation).fig9},
	{"fig10", true, (*evaluation).fig10},
	{"fig11", true, func(e *evaluation) error {
		return e.phases("Fig. 11 — total time (median) to scale up", true)
	}},
	{"fig12", true, func(e *evaluation) error {
		return e.phases("Fig. 12 — total time (median) to create + scale up", false)
	}},
	{"fig13", true, (*evaluation).fig13},
	{"fig14", true, func(e *evaluation) error {
		return e.waits("Fig. 14 — wait time (median) until ready after scale up", true)
	}},
	{"fig15", true, func(e *evaluation) error {
		return e.waits("Fig. 15 — wait time (median) until ready after create + scale up", false)
	}},
	{"fig16", true, (*evaluation).fig16},
	{"access", true, (*evaluation).accessOverhead},
	{"trace", true, (*evaluation).traceReplay},
	{"faults", true, (*evaluation).faultReplay},
	{"scale", true, (*evaluation).scale},
	{"chaos", false, (*evaluation).chaosReplay},
	{"load", false, (*evaluation).load},
	{"mobility", false, (*evaluation).mobility},
}

// evaluation is one invocation: its settings, and the cells that more
// than one experiment reads. Figs. 14/15 are the wait-until-ready phase
// of the deployments whose totals make Figs. 11/12, and Fig. 10 bins the
// capture Fig. 9 bins, so each of those cells runs on first use and is
// kept here for the rest of the run.
type evaluation struct {
	services []string
	n, warm  int
	seed     int64
	// workers is the replication worker-pool size (-parallel). Cells come
	// back from testbed.RunParallel in index order, so any worker count
	// prints the same bytes as a sequential run.
	workers int
	csv     bool

	flows, handovers, shards int
	rate, revisits           float64
	migrate                  bool

	scaleUp, createScaleUp [][]*testbed.PhaseResult
	capture                *trace.Trace
}

func main() {
	e := &evaluation{}
	names, named := expNames()
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, "|")+" ("+strings.Join(named, ", ")+" run only when named)")
	flag.IntVar(&e.n, "n", testbed.DefaultDeployments, "deployments per run (paper: 42)")
	service := flag.String("service", "all", "service key: asm|nginx|resnet|nginxpy|all")
	flag.Int64Var(&e.seed, "seed", 1, "simulation seed")
	flag.IntVar(&e.warm, "warm", testbed.DefaultWarmRequests, "warm requests for fig16")
	flag.IntVar(&e.workers, "parallel", 1, "workers for independent replications: 1 = sequential, 0 = GOMAXPROCS")
	format := flag.String("format", "table", "output format for tabular results: table|csv")
	flag.IntVar(&e.flows, "flows", 0, "distinct flows for -exp load (default 20000; millions supported)")
	flag.Float64Var(&e.rate, "rate", 0, "mean arrivals/s for -exp load (default 5000); mean handovers/s for -exp mobility (default 0.5)")
	flag.IntVar(&e.handovers, "handovers", 0, "handover events for -exp mobility (default 16)")
	flag.BoolVar(&e.migrate, "migrate", false, "for -exp mobility: follow mobile clients with their services (deploy at the new zone's edge)")
	flag.Float64Var(&e.revisits, "revisits", 0, "mean extra arrivals per flow for -exp load (default 1.0)")
	flag.IntVar(&e.shards, "shards", 1, "parallel shards for -exp load (1 = sequential; output is byte-identical)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
	exectrace := flag.String("exectrace", "", "write a runtime execution trace to this file")
	flag.Parse()
	if !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "edgesim: unknown experiment %q\nvalid -exp values: %s\n", *exp, strings.Join(names, "|"))
		os.Exit(2)
	}
	e.csv = *format == "csv"
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal("-cpuprofile", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("-cpuprofile", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal("-memprofile", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal("-memprofile", err)
			}
		}()
	}
	// -blockprofile and -mutexprofile show where goroutines wait: channel
	// and condition waits in the block profile, lock contention in the
	// mutex profile.
	if *blockprofile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", *blockprofile)
	}
	if *mutexprofile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexprofile)
	}
	if *exectrace != "" {
		f, err := os.Create(*exectrace)
		if err != nil {
			fatal("-exectrace", err)
		}
		if err := rtrace.Start(f); err != nil {
			fatal("-exectrace", err)
		}
		defer func() {
			rtrace.Stop()
			f.Close()
		}()
	}

	e.services = allServices
	if *service != "all" {
		e.services = []string{*service}
	}
	for _, x := range experiments {
		if x.name != *exp && !(x.inAll && *exp == "all") {
			continue
		}
		if err := x.run(e); err != nil {
			fatal(x.name, err)
		}
		fmt.Println()
	}
}

// expNames returns every -exp value and, in named, the ones -exp all
// skips.
func expNames() (names, named []string) {
	for _, x := range experiments {
		names = append(names, x.name)
		if !x.inAll {
			named = append(named, x.name)
		}
	}
	return append(names, "all"), named
}

// fatal reports a failed step on stderr and exits 1.
func fatal(what string, err error) {
	fmt.Fprintf(os.Stderr, "edgesim: %s: %v\n", what, err)
	os.Exit(1)
}

// emit renders one result table, as CSV under -format csv.
func (e *evaluation) emit(t *metrics.Table) {
	if e.csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t)
	}
}

// bigFlows is the paper's bigFlows trace configuration at the run's seed.
func (e *evaluation) bigFlows() trace.Config {
	cfg := trace.DefaultBigFlows()
	cfg.Seed = e.seed
	return cfg
}

// mobility runs the client-mobility experiment: persistent sessions
// on mobile clients, a seeded random walk hopping them between the two
// gNBs, make-before-break flow re-steering at each hop. Every number in
// the table is virtual-time deterministic — byte-identical for a given
// seed regardless of -parallel.
func (e *evaluation) mobility() error {
	cfg := testbed.MobilityConfig{Handovers: e.handovers, Migrate: e.migrate, Seed: e.seed}
	if e.rate > 0 {
		cfg.Interval = time.Duration(float64(time.Second) / e.rate)
	}
	res, err := testbed.RunMobility(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Client mobility — %d sessions, %d handovers, make-before-break re-steering (seed %d)\n",
		res.Sessions, res.Config.Handovers, e.seed)
	t := metrics.NewTable("", "metric", "value")
	t.AddRow("handovers", fmt.Sprintf("%d", res.Stats.Handovers))
	t.AddRow("re-steered flows", fmt.Sprintf("%d", res.Stats.ReSteeredFlows))
	t.AddRow("migrated instances", fmt.Sprintf("%d", res.Stats.MigratedInstances))
	t.AddRow("continuity breaks", fmt.Sprintf("%d", res.Stats.ContinuityBreaks))
	t.AddRow("session rounds verified", fmt.Sprintf("%d", res.Rounds))
	t.AddRow("verified bytes", fmt.Sprintf("%d", res.VerifiedBytes))
	t.AddRow("session checksum", fmt.Sprintf("%016x", res.Checksum))
	t.AddRow("handover p50", metrics.FmtMS(res.HandoverLat.Median()))
	t.AddRow("handover p99", metrics.FmtMS(res.HandoverLat.Percentile(99)))
	t.AddRow("post-run audit delta", fmt.Sprintf("%d/%d", res.AuditA, res.AuditB))
	t.AddRow("packet-ins", fmt.Sprintf("%d", res.Stats.PacketIns))
	t.AddRow("memory hits", fmt.Sprintf("%d", res.Stats.MemoryHits))
	t.AddRow("flows installed", fmt.Sprintf("%d", res.Stats.FlowsInstalled))
	e.emit(t)
	if res.Stats.ContinuityBreaks == 0 {
		fmt.Println("every session survived every handover: zero continuity breaks, tables converged")
	}
	return nil
}

// writeProfile dumps one named runtime profile (block, mutex) on exit.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal("-"+name+"profile", err)
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fatal("-"+name+"profile", err)
	}
}

// load runs the open-loop Poisson/Zipf arrival engine: -flows distinct
// synthetic clients at -rate arrivals/s against pre-deployed services.
// The table on stdout is deterministic for a given seed; the wall-clock
// throughput and peak-heap lines go to stderr because they are the only
// host-dependent numbers. Dispatch latency is recorded in the streaming histogram, so
// a multi-million-arrival run costs constant telemetry memory and the
// peak-heap figure tracks the system under test, not the measurement.
//
// With -shards > 1 the run is service-partitioned across that many
// clocks (see testbed.LoadConfig.Shards). Everything on stdout —
// including the fingerprint row — is byte-identical to -shards 1; the
// shard count itself goes to stderr with the other host-dependent
// lines, which is what lets `make same-output` diff stdout directly.
func (e *evaluation) load() error {
	res, err := testbed.RunLoad(testbed.LoadConfig{Flows: e.flows, Rate: e.rate, Revisits: e.revisits, Seed: e.seed, Shards: e.shards})
	if err != nil {
		return err
	}
	cfg := res.Config
	fmt.Printf("Open-loop load — %d flows, %.0f arrivals/s Poisson, %d services (Zipf s=%.1f), seed %d\n",
		cfg.Flows, cfg.Rate, cfg.Services, cfg.ZipfS, e.seed)
	t := metrics.NewTable("", "metric", "value")
	t.AddRow("fingerprint", res.Fingerprint())
	t.AddRow("arrivals", fmt.Sprintf("%d", res.Arrivals))
	t.AddRow("virtual span", fmt.Sprintf("%v", res.VirtualDuration.Round(time.Millisecond)))
	t.AddRow("punts answered", fmt.Sprintf("%d", res.Punts))
	t.AddRow("dispatch p50", metrics.FmtMS(res.Dispatch.Median()))
	t.AddRow("dispatch p99", metrics.FmtMS(res.Dispatch.Percentile(99)))
	t.AddRow("packet-ins", fmt.Sprintf("%d", res.Stats.PacketIns))
	t.AddRow("memory hits", fmt.Sprintf("%d", res.Stats.MemoryHits))
	t.AddRow("dispatches", fmt.Sprintf("%d", res.Stats.ScheduleCalls))
	t.AddRow("flows installed", fmt.Sprintf("%d", res.Stats.FlowsInstalled))
	t.AddRow("cloud forwards", fmt.Sprintf("%d", res.Stats.CloudForwards))
	t.AddRow("replies absorbed", fmt.Sprintf("%d", res.DroppedReplies))
	for i, n := range res.ServiceArrivals {
		t.AddRow(fmt.Sprintf("arrivals svc %d", i), fmt.Sprintf("%d", n))
	}
	e.emit(t)
	fmt.Fprintf(os.Stderr, "load: %d arrivals in %v wall (%.0f arrivals/s, %d shard(s))\n",
		res.Arrivals, res.Wall.Round(time.Millisecond), float64(res.Arrivals)/res.Wall.Seconds(), cfg.Shards)
	fmt.Fprintf(os.Stderr, "load: peak heap %.1f MiB\n", float64(res.PeakHeap)/(1<<20))
	return nil
}

// chaosReplay replays the trace under the default network chaos
// scenario — flapping access links, a cloud-router crash, a switch
// reboot, and a lossy OpenFlow channel — then judges the run against
// the chaos invariants: every request classified, zero leaked packets,
// flow tables converged after one post-chaos audit. A violation is a
// non-zero exit, which is what `make chaos-check` keys on.
func (e *evaluation) chaosReplay() error {
	res, err := testbed.RunChaos("nginx", e.bigFlows(), testbed.DefaultChaosConfig(e.seed), e.seed)
	if err != nil {
		return err
	}
	fmt.Printf("Network & control-channel chaos — %d requests under link flaps, router crash, switch restart, lossy OpenFlow channel (seed %d)\n",
		res.Requests, e.seed)
	t := metrics.NewTable("", "metric", "value")
	t.AddRow("completed requests", fmt.Sprintf("%d", res.Completed))
	t.AddRow("classified failures", fmt.Sprintf("%d", res.Failed))
	t.AddRow("unclassified failures", fmt.Sprintf("%d", res.Unclassified))
	t.AddRow("median", metrics.FmtMS(res.Totals.Median()))
	t.AddRow("p99", metrics.FmtMS(res.Totals.Percentile(99)))
	t.AddRow("control-channel drops", fmt.Sprintf("%d", res.Stats.ChannelDrops))
	t.AddRow("degraded to cloud", fmt.Sprintf("%d", res.Stats.DegradedToCloud))
	t.AddRow("resync runs", fmt.Sprintf("%d", res.Stats.ResyncRuns))
	t.AddRow("reinstalled flows", fmt.Sprintf("%d", res.Stats.ReinstalledFlows))
	t.AddRow("orphan flows removed", fmt.Sprintf("%d", res.Stats.OrphanFlowsRemoved))
	t.AddRow("leaked packets", fmt.Sprintf("%d", res.LeakedPackets))
	t.AddRow("tables converged", fmt.Sprintf("%v (residual diff %d)", res.Converged, res.ConvergeDelta))
	e.emit(t)
	if !res.InvariantsOK() {
		return fmt.Errorf("invariant violation: unclassified=%d leaked=%d converged=%v",
			res.Unclassified, res.LeakedPackets, res.Converged)
	}
	fmt.Println("invariants held: every request classified, zero packet leaks, flow tables converged")
	return nil
}

// scale reports control-plane dispatch latency under packet-in storms
// of growing client populations: a cold wave (FlowMemory misses riding
// the candidate-snapshot cache) and a warm wave (FlowMemory hits).
func (e *evaluation) scale() error {
	t := metrics.NewTable("Control-plane scale — nginx pre-deployed, per-client dispatch latency (median)",
		"clients", "cold dispatch", "memory hit", "candidate hits", "candidate misses")
	for _, clients := range []int{20, 100, 250} {
		res, err := testbed.RunScale("nginx", clients, e.seed)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%d", clients),
			metrics.FmtMS(res.Cold.Median()),
			metrics.FmtMS(res.Warm.Median()),
			fmt.Sprintf("%d", res.Stats.CandidateHits),
			fmt.Sprintf("%d", res.Stats.CandidateMisses))
	}
	e.emit(t)
	fmt.Println("cold dispatch scales with one candidate gathering per TTL window, not one per client")
	return nil
}

// accessOverhead reports the cost of the transparent-access mechanism
// itself — the evaluation focus of the original 2019 paper.
func (e *evaluation) accessOverhead() error {
	res, err := testbed.RunAccessOverhead("asm", 20, e.seed)
	if err != nil {
		return err
	}
	t := metrics.NewTable("Transparent access overhead (asm, instance running; median)",
		"path", "time_total", "what it pays")
	t.AddRow("direct to instance", metrics.FmtMS(res.Direct.Median()), "baseline, no SDN")
	t.AddRow("installed flows", metrics.FmtMS(res.WarmFlow.Median()), "line-rate rewriting only")
	t.AddRow("FlowMemory hit", metrics.FmtMS(res.MemoryHit.Median()), "packet-in, no scheduling")
	t.AddRow("cold dispatch", metrics.FmtMS(res.ColdDispatch.Median()), "packet-in + scheduler")
	e.emit(t)
	return nil
}

func (e *evaluation) tableI() error {
	e.emit(testbed.TableI())
	return nil
}

// bigFlowsCapture returns the trace recovered from the synthetic
// bigFlows capture (Figs. 9 and 10), recovering it on first use.
func (e *evaluation) bigFlowsCapture() (*trace.Trace, error) {
	if e.capture == nil {
		res, err := testbed.RunWorkload(e.bigFlows())
		if err != nil {
			return nil, err
		}
		e.capture = res.Trace
	}
	return e.capture, nil
}

func (e *evaluation) fig9() error {
	tr, err := e.bigFlowsCapture()
	if err != nil {
		return err
	}
	fmt.Printf("Fig. 9 — %d requests to %d edge services over %v (recovered from synthetic bigFlows pcap)\n",
		tr.TotalRequests(), len(tr.Counts), tr.Config.Duration)
	fmt.Println(metrics.Histogram("requests per second", tr.RequestsPerSecond(), time.Second, 30))
	return nil
}

func (e *evaluation) fig10() error {
	tr, err := e.bigFlowsCapture()
	if err != nil {
		return err
	}
	fmt.Printf("Fig. 10 — %d edge service deployments over %v (burst: up to %d per second)\n",
		len(tr.Counts), tr.Config.Duration, tr.MaxDeploymentsPerSecond())
	fmt.Println(metrics.Histogram("deployments per second", tr.DeploymentsPerSecond(), time.Second, 30))
	return nil
}

// serviceCells runs cell once per (service, column) pair across the
// worker pool and returns the results indexed [service][column].
func serviceCells[T any](e *evaluation, columns int, cell func(key string, col int) (T, error)) ([][]T, error) {
	flat, err := testbed.RunParallel(len(e.services)*columns, e.workers, func(i int) (T, error) {
		return cell(e.services[i/columns], i%columns)
	})
	if err != nil {
		return nil, err
	}
	cells := make([][]T, len(e.services))
	for si := range cells {
		cells[si] = flat[si*columns : (si+1)*columns]
	}
	return cells, nil
}

var phaseKinds = []cluster.Kind{cluster.Docker, cluster.Kubernetes}

// phaseCells returns the scale-up (or create+scale-up) cells indexed
// [service][kind], running them on first use: Figs. 11/12 read their
// totals and Figs. 14/15 their waits.
func (e *evaluation) phaseCells(scaleOnly bool) ([][]*testbed.PhaseResult, error) {
	cells, run := &e.createScaleUp, testbed.RunCreateScaleUp
	if scaleOnly {
		cells, run = &e.scaleUp, testbed.RunScaleUp
	}
	if *cells == nil {
		c, err := serviceCells(e, len(phaseKinds), func(key string, col int) (*testbed.PhaseResult, error) {
			return run(key, phaseKinds[col], e.n, e.seed)
		})
		if err != nil {
			return nil, err
		}
		*cells = c
	}
	return *cells, nil
}

func (e *evaluation) phases(title string, scaleOnly bool) error {
	cells, err := e.phaseCells(scaleOnly)
	if err != nil {
		return err
	}
	t := metrics.NewTable(title, "Service", "Docker", "K8s", "paper says")
	for si, key := range e.services {
		row := []string{key}
		for ki, kind := range phaseKinds {
			res := cells[si][ki]
			if res.Errors > 0 {
				return fmt.Errorf("%s on %s: %d failed deployments", key, kind, res.Errors)
			}
			row = append(row, metrics.FmtMS(res.Totals.Median()))
		}
		row = append(row, paperPhaseNote(key, scaleOnly))
		t.AddRow(row...)
	}
	e.emit(t)
	return nil
}

func paperPhaseNote(key string, scaleOnly bool) string {
	base := map[string]string{
		"asm":     "Docker <1 s, K8s ≈3 s",
		"nginx":   "Docker <1 s, K8s ≈3 s",
		"resnet":  "slowest; wait >¼ of total",
		"nginxpy": "two containers, Docker <1 s",
	}[key]
	if !scaleOnly && key != "resnet" {
		base += "; create adds ≈100 ms"
	}
	return base
}

func (e *evaluation) fig13() error {
	t := metrics.NewTable("Fig. 13 — total time to pull the service images onto the EGS",
		"Service", "Docker Hub / GCR", "private registry", "saved")
	pulls, err := serviceCells(e, 2, func(key string, col int) (*testbed.PullResult, error) {
		return testbed.RunPull(key, col == 1, 10, e.seed)
	})
	if err != nil {
		return err
	}
	for si, key := range e.services {
		pub, priv := pulls[si][0], pulls[si][1]
		t.AddRow(key,
			fmt.Sprintf("%s (%s)", metrics.FmtMS(pub.Times.Median()), pub.Registry),
			metrics.FmtMS(priv.Times.Median()),
			metrics.FmtMS(pub.Times.Median()-priv.Times.Median()))
	}
	e.emit(t)
	fmt.Println("paper: private registry improves pulls by about 1.5–2 s")
	return nil
}

func (e *evaluation) waits(title string, scaleOnly bool) error {
	cells, err := e.phaseCells(scaleOnly)
	if err != nil {
		return err
	}
	t := metrics.NewTable(title, "Service", "Docker", "K8s")
	for si, key := range e.services {
		row := []string{key}
		for ki := range phaseKinds {
			row = append(row, metrics.FmtMS(cells[si][ki].Waits.Median()))
		}
		t.AddRow(row...)
	}
	e.emit(t)
	return nil
}

func (e *evaluation) fig16() error {
	t := metrics.NewTable("Fig. 16 — total time (median) for requests with the instance already running",
		"Service", "Docker", "K8s", "paper says")
	notes := map[string]string{
		"asm":     "≈1 ms",
		"nginx":   "≈1 ms",
		"resnet":  "significantly longer (inference)",
		"nginxpy": "≈1 ms",
	}
	warms, err := serviceCells(e, len(phaseKinds), func(key string, col int) (*testbed.WarmResult, error) {
		return testbed.RunWarm(key, phaseKinds[col], e.warm, e.seed)
	})
	if err != nil {
		return err
	}
	for si, key := range e.services {
		row := []string{key}
		for ki := range phaseKinds {
			row = append(row, metrics.FmtMS(warms[si][ki].Totals.Median()))
		}
		row = append(row, notes[key])
		t.AddRow(row...)
	}
	e.emit(t)
	return nil
}

// faultReplay replays the trace twice on the same two-edge topology —
// once fault-free, once with 10 % pull/scale-up failures plus a 30 s
// near-edge outage — and reports what the resilience machinery paid to
// keep every client request alive.
func (e *evaluation) faultReplay() error {
	cfg := e.bigFlows()
	base, err := testbed.RunFaultReplay("nginx", cfg, faultinject.Config{Seed: e.seed}, e.seed)
	if err != nil {
		return err
	}
	faulted, err := testbed.RunFaultReplay("nginx", cfg, testbed.DefaultFaultConfig(e.seed), e.seed)
	if err != nil {
		return err
	}
	fmt.Printf("Fault injection — %d requests, 10%% pull/scale-up failures, one 30 s edge outage (seed %d)\n",
		faulted.Requests, e.seed)
	t := metrics.NewTable("", "metric", "fault-free", "faulted")
	t.AddRow("failed requests", fmt.Sprintf("%d", base.Errors), fmt.Sprintf("%d", faulted.Errors))
	t.AddRow("median", metrics.FmtMS(base.Totals.Median()), metrics.FmtMS(faulted.Totals.Median()))
	t.AddRow("p99", metrics.FmtMS(base.Totals.Percentile(99)), metrics.FmtMS(faulted.Totals.Percentile(99)))
	t.AddRow("max", metrics.FmtMS(base.Totals.Max()), metrics.FmtMS(faulted.Totals.Max()))
	for _, row := range []struct {
		name string
		a, b int64
	}{
		{"injected pull failures", base.Injected.PullFailures, faulted.Injected.PullFailures},
		{"injected scale-up failures", base.Injected.ScaleUpFailures, faulted.Injected.ScaleUpFailures},
		{"injected outage errors", base.Injected.OutageErrors, faulted.Injected.OutageErrors},
		{"retries", base.Stats.Retries, faulted.Stats.Retries},
		{"failovers", base.Stats.Failovers, faulted.Stats.Failovers},
		{"breaker trips", base.Stats.BreakerTrips, faulted.Stats.BreakerTrips},
		{"breaker recoveries", base.Stats.BreakerRecoveries, faulted.Stats.BreakerRecoveries},
		{"health evictions", base.Stats.HealthEvictions, faulted.Stats.HealthEvictions},
		{"cloud forwards", base.Stats.CloudForwards, faulted.Stats.CloudForwards},
	} {
		t.AddRow(row.name, fmt.Sprintf("%d", row.a), fmt.Sprintf("%d", row.b))
	}
	e.emit(t)
	if faulted.Errors == 0 {
		fmt.Println("every request completed: faults were absorbed by retry, failover, and cloud fallback")
	}
	return nil
}

func (e *evaluation) traceReplay() error {
	cfg := e.bigFlows()
	res, err := testbed.RunTraceReplay("nginx", cluster.Docker, cfg, e.seed)
	if err != nil {
		return err
	}
	fmt.Printf("Full trace replay — %d requests to %d nginx services on Docker\n",
		res.Totals.Len(), cfg.HotServices)
	t := metrics.NewTable("", "metric", "value")
	t.AddRow("median", metrics.FmtMS(res.Totals.Median()))
	t.AddRow("p90", metrics.FmtMS(res.Totals.Percentile(90)))
	t.AddRow("p99", metrics.FmtMS(res.Totals.Percentile(99)))
	t.AddRow("max", metrics.FmtMS(res.Totals.Max()))
	t.AddRow("packet-ins", fmt.Sprintf("%d", res.Stats.PacketIns))
	t.AddRow("deployments (waiting)", fmt.Sprintf("%d", res.Stats.DeploysWaiting))
	t.AddRow("scale-ups", fmt.Sprintf("%d", res.Stats.ScaleUps))
	t.AddRow("memory hits", fmt.Sprintf("%d", res.Stats.MemoryHits))
	e.emit(t)
	return nil
}
