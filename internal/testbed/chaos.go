package testbed

import (
	"errors"
	"time"

	"github.com/c3lab/transparentedge/internal/catalog"
	"github.com/c3lab/transparentedge/internal/core"
	"github.com/c3lab/transparentedge/internal/faultinject"
	"github.com/c3lab/transparentedge/internal/metrics"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/trace"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// DefaultChaosConfig is the evaluated network chaos scenario: three
// client access links flap between t=20s and t=70s, the cloud uplink
// router crashes for 8 s, the gNB switch reboots (losing its whole
// flow table) at t=55s, and the OpenFlow control channel drops and
// reorders messages until t=90s. The trace outlives every fault
// window, so the invariant checker can measure post-chaos convergence.
func DefaultChaosConfig(seed int64) faultinject.NetworkConfig {
	return faultinject.NetworkConfig{
		Seed:            seed,
		FlapStart:       20 * time.Second,
		FlapEnd:         70 * time.Second,
		MeanUp:          4 * time.Second,
		MeanDown:        300 * time.Millisecond,
		FlapLinks:       3,
		PacketInLoss:    0.05,
		FlowModLoss:     0.10,
		FlowRemovedLoss: 0.20,
		PacketOutLoss:   0.05,
		ReorderRate:     0.10,
		CtrlExtraDelay:  2 * time.Millisecond,
		FaultsEnd:       90 * time.Second,
		RouterCrashes: []faultinject.Window{
			{Start: 40 * time.Second, End: 48 * time.Second},
		},
		SwitchRestarts: []time.Duration{55 * time.Second},
	}
}

// ChaosResult is the outcome of one chaos replay, judged against the
// three invariants of the chaos-hardening work: every request either
// completes or fails with a classified transport error (no silent
// hangs), no pooled packet leaks, and the switch flow tables converge
// to the controller's desired state once the faults stop.
type ChaosResult struct {
	// Requests is the replayed request count; Completed how many
	// succeeded; Failed how many returned a classified transport error.
	Requests  int
	Completed int
	Failed    int
	// Unclassified counts failures that are neither success nor a
	// recognized transport error — each one is an invariant violation.
	Unclassified int
	// LeakedPackets is the pooled-packet population growth across the
	// run after the drain grace: non-zero means a held or in-flight
	// packet was dropped without being released.
	LeakedPackets int64
	// Converged reports whether every switch table matched the desired
	// state after one post-chaos audit; ConvergeDelta is the residual
	// symmetric difference (zero when Converged).
	Converged     bool
	ConvergeDelta int
	// Totals is the client-observed time_total of completed requests.
	Totals *metrics.Series
	// Stats is the controller's view: resync runs, reinstalled flows,
	// orphans removed, degraded-to-cloud falls, channel drops.
	Stats core.Stats
}

// InvariantsOK reports whether the run upheld all three invariants.
func (r *ChaosResult) InvariantsOK() bool {
	return r.Unclassified == 0 && r.LeakedPackets == 0 && r.Converged
}

// classified reports whether err is one of the transport failure
// classes a client can act on.
func classified(err error) bool {
	return errors.Is(err, netem.ErrTimeout) || errors.Is(err, netem.ErrRefused) ||
		errors.Is(err, netem.ErrReset) || errors.Is(err, netem.ErrClosed)
}

// RunChaos replays the request trace on a two-edge testbed while the
// given network chaos schedule runs, then checks the invariants:
// after a drain grace and one reconciliation audit, request outcomes
// must all be classified, the pooled-packet population must return to
// its pre-run level, and every switch table must equal the desired
// state. Long idle timeouts keep flow expiry from racing the
// convergence check; the reconciler runs every 5 s during chaos.
func RunChaos(serviceKey string, cfg trace.Config, chaos faultinject.NetworkConfig, seed int64) (*ChaosResult, error) {
	svc, err := catalog.ByKey(serviceKey)
	if err != nil {
		return nil, err
	}
	var res *ChaosResult
	var runErr error
	clk := vclock.New()
	clk.Run(func() {
		before := netem.LivePackets()
		tb, err := New(clk, Options{
			WithDocker:     true,
			WithFarEdge:    true,
			NetChaos:       &chaos,
			ResyncInterval: 5 * time.Second,
			HoldTimeout:    2 * time.Second,
			SwitchFlowIdle: 10 * time.Minute,
			MemoryIdle:     10 * time.Minute,
			Seed:           seed,
		})
		if err != nil {
			runErr = err
			return
		}
		handles, err := tb.RegisterMany(svc, cfg.HotServices)
		if err != nil {
			runErr = err
			return
		}
		tb.ApplyNetChaos()
		tr := trace.Generate(cfg)
		totals, errs := tb.replayTraceClassified(tr, handles)

		r := &ChaosResult{Requests: len(tr.Requests), Totals: totals}
		for _, e := range errs {
			switch {
			case e == nil:
				r.Completed++
			case classified(e):
				r.Failed++
			default:
				r.Unclassified++
			}
		}

		// Drain: let retransmission backoffs and fault windows expire
		// (the longest SYN retry ladder spans ~63 s of virtual time),
		// then run one audit and measure the residual divergence.
		tb.Clock.Sleep(90 * time.Second)
		tb.Controller.ResyncNow()
		r.ConvergeDelta = tb.Controller.AuditDiff(tb.Switch)
		if tb.SwitchB != nil {
			r.ConvergeDelta += tb.Controller.AuditDiff(tb.SwitchB)
		}
		r.Converged = r.ConvergeDelta == 0
		r.LeakedPackets = netem.LivePackets() - before
		r.Stats = tb.Controller.Stats()
		res = r
	})
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}
