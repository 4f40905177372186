package testbed

import (
	"bytes"
	"fmt"
	"time"

	"github.com/c3lab/transparentedge/internal/catalog"
	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/containerd"
	"github.com/c3lab/transparentedge/internal/core"
	"github.com/c3lab/transparentedge/internal/metrics"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/registry"
	"github.com/c3lab/transparentedge/internal/timecurl"
	"github.com/c3lab/transparentedge/internal/trace"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// ExperimentDefaults mirror the paper's setup: 42 services receive
// their first requests following the bigFlows deployment distribution.
const (
	// DefaultDeployments is the number of deployments per test run
	// ("We scaled up 42 instances for each test").
	DefaultDeployments = 42
	// DefaultWarmRequests samples the warm path (Fig. 16).
	DefaultWarmRequests = 100
)

// PhaseResult is the outcome of one scale-up / create+scale-up run:
// client-visible totals plus the controller's per-phase timings.
type PhaseResult struct {
	ServiceKey  string
	ClusterName string
	// Totals is the client time_total of each first request
	// (Figs. 11/12).
	Totals *metrics.Series
	// Waits is the controller's wait-until-ready per deployment
	// (Figs. 14/15).
	Waits *metrics.Series
	// Creates is the Create phase duration of each deployment that
	// ran it (only the create+scale-up cells do).
	Creates *metrics.Series
	Errors  int
}

// clusterNameFor maps a cluster kind to the testbed cluster name.
func clusterNameFor(kind cluster.Kind) string {
	if kind == cluster.Kubernetes {
		return "edge-k8s"
	}
	return "edge-docker"
}

// optionsFor builds single-cluster testbed options for a kind.
func optionsFor(kind cluster.Kind, seed int64) Options {
	return Options{
		WithDocker: kind == cluster.Docker,
		WithKube:   kind == cluster.Kubernetes,
		Seed:       seed,
		MemoryIdle: time.Hour, // keep memory out of the measurements
	}
}

// RunScaleUp reproduces one cell of Fig. 11 (and Fig. 14): images
// cached, services created; the first client request triggers the
// Scale Up phase on demand and the total time is measured end to end.
func RunScaleUp(serviceKey string, kind cluster.Kind, n int, seed int64) (*PhaseResult, error) {
	return runPhaseExperiment(serviceKey, kind, n, seed, true)
}

// RunCreateScaleUp reproduces one cell of Fig. 12 (and Fig. 15):
// images cached but services not yet created — the Create phase adds
// its ≈100 ms to the first request.
func RunCreateScaleUp(serviceKey string, kind cluster.Kind, n int, seed int64) (*PhaseResult, error) {
	return runPhaseExperiment(serviceKey, kind, n, seed, false)
}

func runPhaseExperiment(serviceKey string, kind cluster.Kind, n int, seed int64, preCreate bool) (*PhaseResult, error) {
	svc, err := catalog.ByKey(serviceKey)
	if err != nil {
		return nil, err
	}
	res := &PhaseResult{
		ServiceKey:  serviceKey,
		ClusterName: clusterNameFor(kind),
		Totals:      metrics.NewSeries("time_total"),
		Waits:       metrics.NewSeries("wait"),
		Creates:     metrics.NewSeries("create"),
	}
	var ctrl *core.Controller
	var runErr error

	clk := vclock.New()
	clk.Run(func() {
		tb, err := New(clk, optionsFor(kind, seed))
		if err != nil {
			runErr = err
			return
		}
		ctrl = tb.Controller
		handles, err := tb.RegisterMany(svc, n)
		if err != nil {
			runErr = err
			return
		}
		name := clusterNameFor(kind)
		// Pull phase done beforehand: the image store is shared, so one
		// pull warms every service of the run.
		if err := tb.PrePull(handles[0], name); err != nil {
			runErr = err
			return
		}
		if preCreate {
			for _, h := range handles {
				if err := tb.PreCreate(h, name); err != nil {
					runErr = err
					return
				}
			}
			// Let the Kubernetes controller chain settle before the
			// measured phase begins.
			clk.Sleep(3 * time.Second)
		}
		replay := tb.ReplayFirstRequests(trace.FirstRequests(deployTrace(n, seed)), handles)
		res.Errors += replay.Errors
		for _, d := range replay.Totals.Samples() {
			res.Totals.Add(d)
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	// A deployment can finish after fn returns, up to the moment Run
	// does: the log is complete only now.
	for _, tr := range ctrl.Deployments() {
		if tr.Err != nil {
			res.Errors++
			continue
		}
		res.Waits.Add(tr.Wait)
		if tr.Create > 0 {
			res.Creates.Add(tr.Create)
		}
	}
	return res, nil
}

// deployTrace builds a workload whose first occurrences drive n
// deployments with the bigFlows-like burst.
func deployTrace(n int, seed int64) trace.Config {
	cfg := trace.DefaultBigFlows()
	cfg.HotServices = n
	if cfg.TotalRequests < n*cfg.MinPerService {
		cfg.TotalRequests = n * cfg.MinPerService
	}
	cfg.Seed = seed
	return cfg
}

// PullResult is one Fig. 13 cell: pull times for a service's images
// from one registry.
type PullResult struct {
	ServiceKey string
	Registry   string
	Times      *metrics.Series
}

// RunPull measures the Pull phase (registry download + unpack) onto the
// EGS from the image's home registry (Docker Hub / GCR) or the private
// registry — Fig. 13. Each sample starts from a cold store.
func RunPull(serviceKey string, private bool, n int, seed int64) (*PullResult, error) {
	svc, err := catalog.ByKey(serviceKey)
	if err != nil {
		return nil, err
	}
	regName := "Docker Hub"
	if svc.RegistryHost == catalog.RegistryGCR {
		regName = "GCR"
	}
	if private {
		regName = "private"
	}
	res := &PullResult{ServiceKey: serviceKey, Registry: regName, Times: metrics.NewSeries("pull")}

	clk := vclock.New()
	var runErr error
	clk.Run(func() {
		hub := registry.New(clk, seed+1, registry.DockerHub())
		gcr := registry.New(clk, seed+2, registry.GCR())
		priv := registry.New(clk, seed+3, registry.Private())
		catalog.PushAll(hub, gcr)
		catalog.PushAllTo(priv)
		var remote registry.Remote = &registry.Federation{
			Default: hub,
			Routes:  map[string]registry.Remote{"gcr.io/": gcr},
		}
		if private {
			remote = priv
		}
		for i := 0; i < n; i++ {
			store := containerd.NewStore(clk, seed+10+int64(i), containerd.DefaultTiming())
			start := clk.Now()
			for _, im := range svc.Images {
				if _, err := store.Pull(remote, im.Ref); err != nil {
					runErr = err
					return
				}
			}
			res.Times.Add(clk.Since(start))
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}

// WarmResult is one Fig. 16 cell: request totals with the instance
// already running.
type WarmResult struct {
	ServiceKey  string
	ClusterName string
	Totals      *metrics.Series
}

// RunWarm measures client requests once the service instance is up and
// running on the cluster — Fig. 16.
func RunWarm(serviceKey string, kind cluster.Kind, requests int, seed int64) (*WarmResult, error) {
	svc, err := catalog.ByKey(serviceKey)
	if err != nil {
		return nil, err
	}
	res := &WarmResult{
		ServiceKey:  serviceKey,
		ClusterName: clusterNameFor(kind),
		Totals:      metrics.NewSeries("time_total"),
	}
	clk := vclock.New()
	var runErr error
	clk.Run(func() {
		tb, err := New(clk, optionsFor(kind, seed))
		if err != nil {
			runErr = err
			return
		}
		h, err := tb.RegisterCatalogService(svc, trace.ServiceAddr(0))
		if err != nil {
			runErr = err
			return
		}
		if err := tb.PrePull(h, res.ClusterName); err != nil {
			runErr = err
			return
		}
		if _, err := tb.Controller.PreDeploy(h.Addr, res.ClusterName); err != nil {
			runErr = err
			return
		}
		// One unmeasured warm-up request installs the redirect flows;
		// the measured requests then see the steady state the figure
		// reports (instance running, flows in the switch).
		if _, err := tb.Request(0, h); err != nil {
			runErr = err
			return
		}
		for i := 0; i < requests; i++ {
			r, err := tb.Request(0, h)
			if err != nil {
				runErr = err
				return
			}
			res.Totals.Add(r.Total)
			clk.Sleep(500 * time.Millisecond) // spaced-out warm requests
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}

// WorkloadResult carries the trace behind Figs. 9 and 10, recovered
// from a synthesized pcap capture exactly as the paper filters
// bigFlows.pcap; its RequestsPerSecond and DeploymentsPerSecond are
// the two figures' series.
type WorkloadResult struct {
	Trace *trace.Trace
}

// RunWorkload builds the synthetic bigFlows capture, applies the
// paper's extraction (TCP conversations → port 80 → ≥20 requests), and
// returns the Fig. 9/10 distributions.
func RunWorkload(cfg trace.Config) (*WorkloadResult, error) {
	generated := trace.Generate(cfg)
	var buf bytes.Buffer
	if err := generated.WritePcap(&buf, vclock.Epoch); err != nil {
		return nil, err
	}
	recovered, err := trace.FromPcap(&buf, cfg.Duration, cfg.MinPerService)
	if err != nil {
		return nil, err
	}
	return &WorkloadResult{Trace: recovered}, nil
}

// TableI renders the service catalog exactly like the paper's Table I.
func TableI() *metrics.Table {
	t := metrics.NewTable("Table I — Edge services used in this work",
		"Service", "Image(s)", "Size", "Layers", "Containers", "HTTP")
	for _, s := range catalog.Services() {
		refs := ""
		for i, im := range s.Images {
			if i > 0 {
				refs += " + "
			}
			refs += im.Ref
		}
		t.AddRow(s.DisplayName, refs, fmtBytes(s.TotalImageBytes()),
			fmt.Sprintf("%d", s.TotalLayers()), fmt.Sprintf("%d", s.Containers), s.HTTPMethod)
	}
	return t
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.0f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// AccessOverheadResult quantifies the transparent-access mechanism
// itself — the focus of the original 2019 paper: what the SDN
// redirection costs on top of a plain network path, per dispatch case.
type AccessOverheadResult struct {
	// Direct is the baseline: the client talks to the instance address
	// without any switch programming.
	Direct *metrics.Series
	// WarmFlow rides installed redirect flows (zero controller
	// involvement).
	WarmFlow *metrics.Series
	// MemoryHit pays one packet-in answered from the FlowMemory.
	MemoryHit *metrics.Series
	// ColdDispatch pays packet-in + candidate gathering + Global
	// Scheduler, with the instance already running.
	ColdDispatch *metrics.Series
}

// RunAccessOverhead measures the three dispatch cases against a running
// instance, plus the no-SDN baseline.
func RunAccessOverhead(serviceKey string, samples int, seed int64) (*AccessOverheadResult, error) {
	svc, err := catalog.ByKey(serviceKey)
	if err != nil {
		return nil, err
	}
	res := &AccessOverheadResult{
		Direct:       metrics.NewSeries("direct"),
		WarmFlow:     metrics.NewSeries("warm-flow"),
		MemoryHit:    metrics.NewSeries("memory-hit"),
		ColdDispatch: metrics.NewSeries("cold-dispatch"),
	}
	clk := vclock.New()
	var runErr error
	clk.Run(func() {
		tb, err := New(clk, Options{
			WithDocker:     true,
			SwitchFlowIdle: 2 * time.Second,
			MemoryIdle:     time.Hour,
			Seed:           seed,
		})
		if err != nil {
			runErr = err
			return
		}
		h, err := tb.RegisterCatalogService(svc, trace.ServiceAddr(0))
		if err != nil {
			runErr = err
			return
		}
		if err := tb.PrePull(h, "edge-docker"); err != nil {
			runErr = err
			return
		}
		inst, err := tb.Controller.PreDeploy(h.Addr, "edge-docker")
		if err != nil {
			runErr = err
			return
		}

		measure := func(client int, target netem.HostPort) (time.Duration, error) {
			r, err := timecurl.Do(clk, tb.Client(client), timecurl.Request{
				Target:      target,
				Method:      h.Catalog.HTTPMethod,
				PayloadSize: h.Catalog.RequestPayload,
			})
			return r.Total, err
		}

		for i := 0; i < samples; i++ {
			// Baseline: straight to the instance, no interception. A
			// different client measures it — the redirect flows of the
			// SDN client would (correctly) rewrite responses from the
			// instance back to the registered address.
			d, err := measure(1, inst.Addr)
			if err != nil {
				runErr = err
				return
			}
			res.Direct.Add(d)

			// Cold dispatch: drop memory + flows so the packet-in runs
			// the full pipeline of Fig. 7 (instance already running).
			tb.Controller.FlowMemory().Forget(trace.ClientAddr(0), h.Addr)
			clk.Sleep(5 * time.Second) // switch flows idle out
			d, err = measure(0, h.Addr)
			if err != nil {
				runErr = err
				return
			}
			res.ColdDispatch.Add(d)

			// Warm flows: immediately again.
			d, err = measure(0, h.Addr)
			if err != nil {
				runErr = err
				return
			}
			res.WarmFlow.Add(d)

			// Memory hit: let the switch flows expire but keep memory.
			clk.Sleep(5 * time.Second)
			d, err = measure(0, h.Addr)
			if err != nil {
				runErr = err
				return
			}
			res.MemoryHit.Add(d)
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}

// TraceReplayResult is the full end-to-end replay: all requests of the
// workload against a live testbed.
type TraceReplayResult struct {
	ServiceKey  string
	ClusterName string
	Totals      *metrics.Series
	Stats       core.Stats
}

// RunTraceReplay replays the complete request trace (default: 1708
// requests to 42 services over five minutes) against one cluster kind
// with on-demand deployment — the paper's overall scenario.
func RunTraceReplay(serviceKey string, kind cluster.Kind, cfg trace.Config, seed int64) (*TraceReplayResult, error) {
	svc, err := catalog.ByKey(serviceKey)
	if err != nil {
		return nil, err
	}
	res := &TraceReplayResult{ServiceKey: serviceKey, ClusterName: clusterNameFor(kind)}
	clk := vclock.New()
	var runErr error
	clk.Run(func() {
		tb, err := New(clk, optionsFor(kind, seed))
		if err != nil {
			runErr = err
			return
		}
		handles, err := tb.RegisterMany(svc, cfg.HotServices)
		if err != nil {
			runErr = err
			return
		}
		if err := tb.PrePull(handles[0], res.ClusterName); err != nil {
			runErr = err
			return
		}
		tr := trace.Generate(cfg)
		res.Totals, _ = tb.ReplayTrace(tr, handles)
		res.Stats = tb.Controller.Stats()
	})
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}
