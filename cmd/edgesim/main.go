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
	"strings"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/faultinject"
	"github.com/c3lab/transparentedge/internal/metrics"
	"github.com/c3lab/transparentedge/internal/testbed"
	"github.com/c3lab/transparentedge/internal/trace"
)

var allServices = []string{"asm", "nginx", "resnet", "nginxpy"}

// workers is the replication worker-pool size (the -parallel flag).
// Every figure builds its cells through testbed.RunParallel with this
// pool; results come back in index order, so any worker count produces
// byte-identical output to a sequential run.
var workers = 1

// emit renders one result table; -format csv swaps the renderer.
var emit = func(t *metrics.Table) { fmt.Println(t) }

func main() {
	exp := flag.String("exp", "all", "experiment: "+expNames()+" (chaos, load, and mobility run only when named)")
	n := flag.Int("n", testbed.DefaultDeployments, "deployments per run (paper: 42)")
	service := flag.String("service", "all", "service key: asm|nginx|resnet|nginxpy|all")
	seed := flag.Int64("seed", 1, "simulation seed")
	warm := flag.Int("warm", testbed.DefaultWarmRequests, "warm requests for fig16")
	parallel := flag.Int("parallel", 1, "workers for independent replications: 1 = sequential, 0 = GOMAXPROCS")
	format := flag.String("format", "table", "output format for tabular results: table|csv")
	flows := flag.Int("flows", 0, "distinct flows for -exp load (default 20000; millions supported)")
	rate := flag.Float64("rate", 0, "mean arrivals/s for -exp load (default 5000); mean handovers/s for -exp mobility (default 0.5)")
	handovers := flag.Int("handovers", 0, "handover events for -exp mobility (default 16)")
	migrate := flag.Bool("migrate", false, "for -exp mobility: follow mobile clients with their services (deploy at the new zone's edge)")
	revisits := flag.Float64("revisits", 0, "mean extra arrivals per flow for -exp load (default 1.0)")
	shards := flag.Int("shards", 1, "parallel shards for -exp load (1 = sequential; output is byte-identical)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
	exectrace := flag.String("exectrace", "", "write a runtime execution trace to this file")
	flag.Parse()
	if !knownExp(*exp) {
		fmt.Fprintf(os.Stderr, "edgesim: unknown experiment %q\nvalid -exp values: %s\n", *exp, expNames())
		os.Exit(2)
	}
	workers = *parallel
	if *format == "csv" {
		emit = func(t *metrics.Table) { fmt.Print(t.CSV()) }
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edgesim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "edgesim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "edgesim: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "edgesim: -memprofile: %v\n", err)
				os.Exit(1)
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
			fmt.Fprintf(os.Stderr, "edgesim: -exectrace: %v\n", err)
			os.Exit(1)
		}
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "edgesim: -exectrace: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			rtrace.Stop()
			f.Close()
		}()
	}

	services := allServices
	if *service != "all" {
		services = []string{*service}
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "edgesim: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("tableI", func() error {
		emit(testbed.TableI())
		return nil
	})
	run("fig9", func() error { return fig9(*seed) })
	run("fig10", func() error { return fig10(*seed) })
	run("fig11", func() error { return phases("Fig. 11 — total time (median) to scale up", services, *n, *seed, true) })
	run("fig12", func() error {
		return phases("Fig. 12 — total time (median) to create + scale up", services, *n, *seed, false)
	})
	run("fig13", func() error { return fig13(services, *seed) })
	run("fig14", func() error {
		return waits("Fig. 14 — wait time (median) until ready after scale up", services, *n, *seed, true)
	})
	run("fig15", func() error {
		return waits("Fig. 15 — wait time (median) until ready after create + scale up", services, *n, *seed, false)
	})
	run("fig16", func() error { return fig16(services, *warm, *seed) })
	run("access", func() error { return accessOverhead(*seed) })
	run("trace", func() error { return traceReplay(*seed) })
	run("faults", func() error { return faultReplay(*seed) })
	run("scale", func() error { return scale(*seed) })

	// chaos and load are deliberately NOT part of -exp all: the figure
	// outputs must stay byte-identical run to run, so the chaos replay
	// runs only when asked for by name, and the load experiment (whose
	// wall-clock throughput line depends on the host) likewise.
	if *exp == "chaos" {
		if err := chaosReplay(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "edgesim: chaos: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *exp == "load" {
		if err := load(*flows, *rate, *revisits, *seed, *shards); err != nil {
			fmt.Fprintf(os.Stderr, "edgesim: load: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *exp == "mobility" {
		if err := mobilityExp(*handovers, *rate, *migrate, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "edgesim: mobility: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// experiments lists every valid -exp value, in display order. chaos,
// load, and mobility are deliberately NOT part of "all": the -exp all
// output must stay byte-identical run to run, and those three carry
// their own flags (or, for load, host-dependent stderr lines).
var experiments = []string{
	"tableI", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
	"access", "trace", "faults", "scale", "chaos", "load", "mobility", "all",
}

func expNames() string { return strings.Join(experiments, "|") }

func knownExp(name string) bool {
	for _, e := range experiments {
		if e == name {
			return true
		}
	}
	return false
}

// mobilityExp runs the client-mobility experiment: persistent sessions
// on mobile clients, a seeded random walk hopping them between the two
// gNBs, make-before-break flow re-steering at each hop. Every number in
// the table is virtual-time deterministic — byte-identical for a given
// seed regardless of -parallel.
func mobilityExp(handovers int, rate float64, migrate bool, seed int64) error {
	cfg := testbed.MobilityConfig{Handovers: handovers, Migrate: migrate, Seed: seed}
	if rate > 0 {
		cfg.Interval = time.Duration(float64(time.Second) / rate)
	}
	res, err := testbed.RunMobility(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Client mobility — %d sessions, %d handovers, make-before-break re-steering (seed %d)\n",
		res.Sessions, res.Config.Handovers, seed)
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
	emit(t)
	if res.Stats.ContinuityBreaks == 0 {
		fmt.Println("every session survived every handover: zero continuity breaks, tables converged")
	}
	return nil
}

// writeProfile dumps one named runtime profile (block, mutex) on exit.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edgesim: -%sprofile: %v\n", name, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "edgesim: -%sprofile: %v\n", name, err)
		os.Exit(1)
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
// lines, which is what lets `make shard-diff` diff stdout directly.
func load(flows int, rate, revisits float64, seed int64, shards int) error {
	res, err := testbed.RunLoad(testbed.LoadConfig{Flows: flows, Rate: rate, Revisits: revisits, Seed: seed, Shards: shards})
	if err != nil {
		return err
	}
	cfg := res.Config
	fmt.Printf("Open-loop load — %d flows, %.0f arrivals/s Poisson, %d services (Zipf s=%.1f), seed %d\n",
		cfg.Flows, cfg.Rate, cfg.Services, cfg.ZipfS, seed)
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
	emit(t)
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
func chaosReplay(seed int64) error {
	cfg := trace.DefaultBigFlows()
	cfg.Seed = seed
	res, err := testbed.RunChaos("nginx", cfg, testbed.DefaultChaosConfig(seed), seed)
	if err != nil {
		return err
	}
	fmt.Printf("Network & control-channel chaos — %d requests under link flaps, router crash, switch restart, lossy OpenFlow channel (seed %d)\n",
		res.Requests, seed)
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
	emit(t)
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
func scale(seed int64) error {
	t := metrics.NewTable("Control-plane scale — nginx pre-deployed, per-client dispatch latency (median)",
		"clients", "cold dispatch", "memory hit", "candidate hits", "candidate misses")
	for _, clients := range []int{20, 100, 250} {
		res, err := testbed.RunScale("nginx", clients, seed)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%d", clients),
			metrics.FmtMS(res.Cold.Median()),
			metrics.FmtMS(res.Warm.Median()),
			fmt.Sprintf("%d", res.Stats.CandidateHits),
			fmt.Sprintf("%d", res.Stats.CandidateMisses))
	}
	emit(t)
	fmt.Println("cold dispatch scales with one candidate gathering per TTL window, not one per client")
	return nil
}

// accessOverhead reports the cost of the transparent-access mechanism
// itself — the evaluation focus of the original 2019 paper.
func accessOverhead(seed int64) error {
	res, err := testbed.RunAccessOverhead("asm", 20, seed)
	if err != nil {
		return err
	}
	t := metrics.NewTable("Transparent access overhead (asm, instance running; median)",
		"path", "time_total", "what it pays")
	t.AddRow("direct to instance", metrics.FmtMS(res.Direct.Median()), "baseline, no SDN")
	t.AddRow("installed flows", metrics.FmtMS(res.WarmFlow.Median()), "line-rate rewriting only")
	t.AddRow("FlowMemory hit", metrics.FmtMS(res.MemoryHit.Median()), "packet-in, no scheduling")
	t.AddRow("cold dispatch", metrics.FmtMS(res.ColdDispatch.Median()), "packet-in + scheduler")
	emit(t)
	return nil
}

func fig9(seed int64) error {
	cfg := trace.DefaultBigFlows()
	cfg.Seed = seed
	res, err := testbed.RunWorkload(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Fig. 9 — %d requests to %d edge services over %v (recovered from synthetic bigFlows pcap)\n",
		res.Trace.TotalRequests(), len(res.Trace.Counts), cfg.Duration)
	fmt.Println(metrics.Histogram("requests per second", res.RequestsPerSec, time.Second, 30))
	return nil
}

func fig10(seed int64) error {
	cfg := trace.DefaultBigFlows()
	cfg.Seed = seed
	res, err := testbed.RunWorkload(cfg)
	if err != nil {
		return err
	}
	max := 0
	for _, v := range res.DeploymentsPerSec {
		if v > max {
			max = v
		}
	}
	fmt.Printf("Fig. 10 — %d edge service deployments over %v (burst: up to %d per second)\n",
		len(res.Trace.Counts), cfg.Duration, max)
	fmt.Println(metrics.Histogram("deployments per second", res.DeploymentsPerSec, time.Second, 30))
	return nil
}

var phaseKinds = []cluster.Kind{cluster.Docker, cluster.Kubernetes}

// phaseCells runs one scale-up (or create+scale-up) replication per
// (service, kind) cell across the worker pool and returns them indexed
// [service][kind].
func phaseCells(services []string, n int, seed int64, scaleOnly bool) ([][]*testbed.PhaseResult, error) {
	flat, err := testbed.RunParallel(len(services)*len(phaseKinds), workers,
		func(i int) (*testbed.PhaseResult, error) {
			key, kind := services[i/len(phaseKinds)], phaseKinds[i%len(phaseKinds)]
			if scaleOnly {
				return testbed.RunScaleUp(key, kind, n, seed)
			}
			return testbed.RunCreateScaleUp(key, kind, n, seed)
		})
	if err != nil {
		return nil, err
	}
	cells := make([][]*testbed.PhaseResult, len(services))
	for si := range services {
		cells[si] = flat[si*len(phaseKinds) : (si+1)*len(phaseKinds)]
	}
	return cells, nil
}

func phases(title string, services []string, n int, seed int64, scaleOnly bool) error {
	cells, err := phaseCells(services, n, seed, scaleOnly)
	if err != nil {
		return err
	}
	t := metrics.NewTable(title, "Service", "Docker", "K8s", "paper says")
	for si, key := range services {
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
	emit(t)
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

func fig13(services []string, seed int64) error {
	t := metrics.NewTable("Fig. 13 — total time to pull the service images onto the EGS",
		"Service", "Docker Hub / GCR", "private registry", "saved")
	pulls, err := testbed.RunParallel(len(services)*2, workers,
		func(i int) (*testbed.PullResult, error) {
			return testbed.RunPull(services[i/2], i%2 == 1, 10, seed)
		})
	if err != nil {
		return err
	}
	for si, key := range services {
		pub, priv := pulls[si*2], pulls[si*2+1]
		t.AddRow(key,
			fmt.Sprintf("%s (%s)", metrics.FmtMS(pub.Times.Median()), pub.Registry),
			metrics.FmtMS(priv.Times.Median()),
			metrics.FmtMS(pub.Times.Median()-priv.Times.Median()))
	}
	emit(t)
	fmt.Println("paper: private registry improves pulls by about 1.5–2 s")
	return nil
}

func waits(title string, services []string, n int, seed int64, scaleOnly bool) error {
	cells, err := phaseCells(services, n, seed, scaleOnly)
	if err != nil {
		return err
	}
	t := metrics.NewTable(title, "Service", "Docker", "K8s")
	for si, key := range services {
		row := []string{key}
		for ki := range phaseKinds {
			row = append(row, metrics.FmtMS(cells[si][ki].Waits.Median()))
		}
		t.AddRow(row...)
	}
	emit(t)
	return nil
}

func fig16(services []string, warm int, seed int64) error {
	t := metrics.NewTable("Fig. 16 — total time (median) for requests with the instance already running",
		"Service", "Docker", "K8s", "paper says")
	notes := map[string]string{
		"asm":     "≈1 ms",
		"nginx":   "≈1 ms",
		"resnet":  "significantly longer (inference)",
		"nginxpy": "≈1 ms",
	}
	warms, err := testbed.RunParallel(len(services)*len(phaseKinds), workers,
		func(i int) (*testbed.WarmResult, error) {
			return testbed.RunWarm(services[i/len(phaseKinds)], phaseKinds[i%len(phaseKinds)], warm, seed)
		})
	if err != nil {
		return err
	}
	for si, key := range services {
		row := []string{key}
		for ki := range phaseKinds {
			row = append(row, metrics.FmtMS(warms[si*len(phaseKinds)+ki].Totals.Median()))
		}
		row = append(row, notes[key])
		t.AddRow(row...)
	}
	emit(t)
	return nil
}

// faultReplay replays the trace twice on the same two-edge topology —
// once fault-free, once with 10 % pull/scale-up failures plus a 30 s
// near-edge outage — and reports what the resilience machinery paid to
// keep every client request alive.
func faultReplay(seed int64) error {
	cfg := trace.DefaultBigFlows()
	cfg.Seed = seed
	base, err := testbed.RunFaultReplay("nginx", cfg, faultinject.Config{Seed: seed}, seed)
	if err != nil {
		return err
	}
	faulted, err := testbed.RunFaultReplay("nginx", cfg, testbed.DefaultFaultConfig(seed), seed)
	if err != nil {
		return err
	}
	fmt.Printf("Fault injection — %d requests, 10%% pull/scale-up failures, one 30 s edge outage (seed %d)\n",
		faulted.Requests, seed)
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
	emit(t)
	if faulted.Errors == 0 {
		fmt.Println("every request completed: faults were absorbed by retry, failover, and cloud fallback")
	}
	return nil
}

func traceReplay(seed int64) error {
	cfg := trace.DefaultBigFlows()
	cfg.Seed = seed
	res, err := testbed.RunTraceReplay("nginx", cluster.Docker, cfg, seed)
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
	emit(t)
	return nil
}
