package transparentedge

// Ablation benches for the design decisions DESIGN.md calls out, and the
// paper's future-work variant. Each iteration runs a complete scenario
// on the virtual clock; the reported custom metrics carry *simulated*
// times (sim-ms) — wall-clock ns/op only measures the emulator itself.
// The paper's tables and figures are reproduced by `edgesim -exp <name>`
// and measured end to end by `go run ./bench` (workload figures).
//
//	go test -run '^$' -bench 'Ablation|FutureWork' -benchtime 1x .

import (
	"fmt"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/catalog"
	"github.com/c3lab/transparentedge/internal/core"
	"github.com/c3lab/transparentedge/internal/testbed"
	"github.com/c3lab/transparentedge/internal/trace"
	"github.com/c3lab/transparentedge/internal/vclock"
)

func simMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ablationScenario measures repeated requests from one client with the
// switch flow expiring between them, so every request needs the
// controller — isolating the FlowMemory's effect.
func ablationScenario(b *testing.B, disableMemory bool) (mean time.Duration, scheduleCalls int64) {
	clk := vclock.New()
	clk.Run(func() {
		tb, err := testbed.New(clk, testbed.Options{
			WithDocker:        true,
			SwitchFlowIdle:    time.Second,
			MemoryIdle:        time.Hour,
			DisableFlowMemory: disableMemory,
			Seed:              1,
		})
		if err != nil {
			b.Fatal(err)
		}
		nginx, _ := catalog.ByKey("nginx")
		h, err := tb.RegisterCatalogService(nginx, trace.ServiceAddr(0))
		if err != nil {
			b.Fatal(err)
		}
		tb.PrePull(h, "edge-docker")
		if _, err := tb.Request(0, h); err != nil { // deploy once
			b.Fatal(err)
		}
		var sum time.Duration
		const reqs = 20
		for i := 0; i < reqs; i++ {
			clk.Sleep(3 * time.Second) // let the switch flow idle out
			r, err := tb.Request(0, h)
			if err != nil {
				b.Fatal(err)
			}
			sum += r.Total
		}
		mean = sum / reqs
		scheduleCalls = tb.Controller.Stats().ScheduleCalls
	})
	return mean, scheduleCalls
}

// BenchmarkAblationFlowMemory quantifies design decision 1 of
// DESIGN.md: with the FlowMemory, expired switch flows are reinstalled
// without consulting the Scheduler.
func BenchmarkAblationFlowMemory(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var mean time.Duration
			var calls int64
			for i := 0; i < b.N; i++ {
				mean, calls = ablationScenario(b, mode.disable)
			}
			b.ReportMetric(simMS(mean), "sim-ms-mean")
			b.ReportMetric(float64(calls), "schedule-calls")
		})
	}
}

// BenchmarkAblationWaitPolicy contrasts holding the first request
// (waiting) against serving it from the cloud while deploying.
func BenchmarkAblationWaitPolicy(b *testing.B) {
	for _, mode := range []struct {
		name string
		wait core.WaitPolicy
	}{{"wait", core.WaitAlways}, {"no-wait-cloud", core.WaitNever}} {
		b.Run(mode.name, func(b *testing.B) {
			var first time.Duration
			for i := 0; i < b.N; i++ {
				clk := vclock.New()
				clk.Run(func() {
					tb, err := testbed.New(clk, testbed.Options{WithDocker: true, Wait: mode.wait, Seed: int64(i + 1)})
					if err != nil {
						b.Fatal(err)
					}
					nginx, _ := catalog.ByKey("nginx")
					h, err := tb.RegisterCatalogService(nginx, trace.ServiceAddr(0))
					if err != nil {
						b.Fatal(err)
					}
					tb.PrePull(h, "edge-docker")
					r, err := tb.Request(0, h)
					if err != nil {
						b.Fatal(err)
					}
					first = r.Total
				})
			}
			b.ReportMetric(simMS(first), "sim-ms-first-request")
		})
	}
}

// BenchmarkAblationProbeInterval sweeps the controller's port-probe
// period: finer probing detects readiness earlier at the cost of more
// probe traffic.
func BenchmarkAblationProbeInterval(b *testing.B) {
	for _, probe := range []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, 500 * time.Millisecond} {
		b.Run(fmt.Sprintf("%v", probe), func(b *testing.B) {
			var med time.Duration
			for i := 0; i < b.N; i++ {
				var waits []time.Duration
				clk := vclock.New()
				clk.Run(func() {
					tb, err := testbed.New(clk, testbed.Options{
						WithDocker:    true,
						ProbeInterval: probe,
						Seed:          int64(i + 1),
						OnDeploy: func(tr core.DeployTrace) {
							waits = append(waits, tr.Wait)
						},
					})
					if err != nil {
						b.Fatal(err)
					}
					nginx, _ := catalog.ByKey("nginx")
					h, err := tb.RegisterCatalogService(nginx, trace.ServiceAddr(0))
					if err != nil {
						b.Fatal(err)
					}
					tb.PrePull(h, "edge-docker")
					if _, err := tb.Request(0, h); err != nil {
						b.Fatal(err)
					}
				})
				if len(waits) > 0 {
					med = waits[0]
				}
			}
			b.ReportMetric(simMS(med), "sim-ms-wait")
		})
	}
}

// BenchmarkAblationHybrid contrasts the §VII hybrid (Docker first,
// Kubernetes later) with a Kubernetes-only deployment for the first
// request.
func BenchmarkAblationHybrid(b *testing.B) {
	for _, mode := range []struct {
		name      string
		scheduler string
		docker    bool
	}{{"hybrid", core.SchedulerHybrid, true}, {"k8s-only", "", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var first time.Duration
			for i := 0; i < b.N; i++ {
				clk := vclock.New()
				clk.Run(func() {
					tb, err := testbed.New(clk, testbed.Options{
						WithDocker:      mode.docker,
						WithKube:        true,
						GlobalScheduler: mode.scheduler,
						Seed:            int64(i + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
					nginx, _ := catalog.ByKey("nginx")
					h, err := tb.RegisterCatalogService(nginx, trace.ServiceAddr(0))
					if err != nil {
						b.Fatal(err)
					}
					if mode.docker {
						tb.PrePull(h, "edge-docker")
					} else {
						tb.PrePull(h, "edge-k8s")
					}
					r, err := tb.Request(0, h)
					if err != nil {
						b.Fatal(err)
					}
					first = r.Total
				})
			}
			b.ReportMetric(simMS(first), "sim-ms-first-request")
		})
	}
}

// BenchmarkFutureWorkServerless evaluates the paper's future work
// (§VIII): the same transparent-access pipeline deploying a serverless
// (WebAssembly) variant of the service, against the container paths.
// The module is fetched/compiled beforehand (the analogue of the cached
// image in Figs. 11/12).
func BenchmarkFutureWorkServerless(b *testing.B) {
	for _, mode := range []string{"wasm", "docker", "k8s"} {
		b.Run(mode, func(b *testing.B) {
			var first time.Duration
			for i := 0; i < b.N; i++ {
				clk := vclock.New()
				clk.Run(func() {
					tb, err := testbed.New(clk, testbed.Options{
						WithFaas:   mode == "wasm",
						WithDocker: mode != "k8s",
						WithKube:   mode == "k8s",
						Seed:       int64(i + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
					var svc catalog.Service
					if mode == "wasm" {
						svc, err = catalog.WasmService("nginx")
					} else {
						svc, err = catalog.ByKey("nginx")
					}
					if err != nil {
						b.Fatal(err)
					}
					h, err := tb.RegisterCatalogService(svc, trace.ServiceAddr(0))
					if err != nil {
						b.Fatal(err)
					}
					target := map[string]string{"wasm": "edge-faas", "docker": "edge-docker", "k8s": "edge-k8s"}[mode]
					if err := tb.PrePull(h, target); err != nil {
						b.Fatal(err)
					}
					r, err := tb.Request(0, h)
					if err != nil {
						b.Fatal(err)
					}
					first = r.Total
				})
			}
			b.ReportMetric(simMS(first), "sim-ms-first-request")
		})
	}
}

// BenchmarkAblationHierarchy quantifies the hierarchical fallback: with
// a farther edge already serving, the first request skips the local
// deployment wait entirely.
func BenchmarkAblationHierarchy(b *testing.B) {
	for _, mode := range []struct {
		name    string
		farEdge bool
	}{{"flat-wait", false}, {"hierarchical-fallback", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var first time.Duration
			for i := 0; i < b.N; i++ {
				clk := vclock.New()
				clk.Run(func() {
					tb, err := testbed.New(clk, testbed.Options{
						WithDocker:  true,
						WithFarEdge: mode.farEdge,
						Seed:        int64(i + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
					nginx, _ := catalog.ByKey("nginx")
					h, err := tb.RegisterCatalogService(nginx, trace.ServiceAddr(0))
					if err != nil {
						b.Fatal(err)
					}
					tb.PrePull(h, "edge-docker")
					if mode.farEdge {
						tb.PrePull(h, "edge-far")
						if _, err := tb.Controller.PreDeploy(h.Addr, "edge-far"); err != nil {
							b.Fatal(err)
						}
					}
					r, err := tb.Request(0, h)
					if err != nil {
						b.Fatal(err)
					}
					first = r.Total
				})
			}
			b.ReportMetric(simMS(first), "sim-ms-first-request")
		})
	}
}
