package testbed

import (
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/core"
	"github.com/c3lab/transparentedge/internal/faultinject"
	"github.com/c3lab/transparentedge/internal/trace"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// chaosTraceConfig is the reduced workload of faultTraceConfig: 12
// services, 480 requests over 3 minutes — long enough that every
// default chaos window (flaps to 70 s, router crash to 48 s, switch
// restart at 55 s, channel faults to 90 s) sits inside live traffic.
func chaosTraceConfig() trace.Config {
	return faultTraceConfig()
}

// TestChaosInvariants runs the default chaos scenario on three seeds.
// Acceptance for each: every request completes or fails with a
// classified transport error, no pooled packet leaks, and the flow
// tables converge to the controller's desired state after one
// post-chaos audit.
func TestChaosInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		res, err := RunChaos("nginx", chaosTraceConfig(), DefaultChaosConfig(seed), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Unclassified != 0 {
			t.Errorf("seed %d: %d of %d requests failed unclassified",
				seed, res.Unclassified, res.Requests)
		}
		if res.LeakedPackets != 0 {
			t.Errorf("seed %d: %d pooled packets leaked", seed, res.LeakedPackets)
		}
		if !res.Converged {
			t.Errorf("seed %d: flow tables did not converge (residual diff %d)",
				seed, res.ConvergeDelta)
		}
		// The scenario really bit: control-channel drops happened and the
		// reconciler had repairs to make.
		if res.Stats.ChannelDrops == 0 {
			t.Errorf("seed %d: no control-channel messages dropped", seed)
		}
		if res.Stats.ResyncRuns == 0 {
			t.Errorf("seed %d: reconciler never ran", seed)
		}
		if res.Stats.ReinstalledFlows == 0 {
			t.Errorf("seed %d: reconciler never repaired a flow", seed)
		}
	}
}

// TestChaosDeterminism replays one seed twice: identical outcomes and
// controller counters are required — chaos schedules are precomputed
// from the seed, so runs are exactly reproducible.
//
// Two counters are masked before comparing, because one race is left
// and it is not in the control plane (packet-ins, flow-mods, packet-outs
// and flow removals are clock events, ordered by the clock alone). The
// hot services share one image, so their first deployments wait on one
// coalesced pull and are released together when it completes; with more
// than one P those goroutines run in parallel, and the order in which
// they reach the Docker engine — which gives each instance its host
// port and its readiness instant — is the Go scheduler's. From there
// every later instant of those services shifts by microseconds, and the
// two counters that count a window a few milliseconds wide move by a
// few units: ReinstalledFlows (an audit snapshot that falls between a
// mapping's Remember and its reverse rule reaching the switch) and
// ChannelDrops (a SYN retransmission punts, and rolls packet-in loss,
// only if it reaches the switch before its redirect rule). Both are
// behavior-neutral (repairs are idempotent, retransmission absorbs the
// punt). At GOMAXPROCS=1 every counter repeats (50 of 50 replays); at
// two Ps these two differ in about half the replays and nothing else
// does: OrphanFlowsRemoved, which used to be masked with them, held in
// 250 of 250 — an orphan stays in the table until an audit deletes it,
// so each is counted once whenever that is.
func TestChaosDeterminism(t *testing.T) {
	a, err := RunChaos("nginx", chaosTraceConfig(), DefaultChaosConfig(5), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos("nginx", chaosTraceConfig(), DefaultChaosConfig(5), 5)
	if err != nil {
		t.Fatal(err)
	}
	maskRaced := func(s core.Stats) core.Stats {
		s.ReinstalledFlows = 0
		s.ChannelDrops = 0
		return s
	}
	if maskRaced(a.Stats) != maskRaced(b.Stats) {
		t.Errorf("controller stats diverged:\n  %+v\n  %+v", a.Stats, b.Stats)
	}
	if a.Completed != b.Completed || a.Failed != b.Failed || a.Unclassified != b.Unclassified {
		t.Errorf("request outcomes diverged: %d/%d/%d vs %d/%d/%d",
			a.Completed, a.Failed, a.Unclassified, b.Completed, b.Failed, b.Unclassified)
	}
}

// randomChaosConfig derives an arbitrary chaos schedule from a seed:
// random flap window, loss rates, router crash, and switch restart,
// all ending before the 3-minute trace does.
func randomChaosConfig(seed int64) faultinject.NetworkConfig {
	rng := vclock.NewRand(seed * 7919)
	cfg := faultinject.NetworkConfig{
		Seed:            seed,
		FlapStart:       10*time.Second + time.Duration(rng.Float64()*float64(20*time.Second)),
		MeanUp:          2*time.Second + time.Duration(rng.Float64()*float64(4*time.Second)),
		MeanDown:        time.Duration(100+rng.Float64()*400) * time.Millisecond,
		FlapLinks:       2 + int(rng.Float64()*3),
		PacketInLoss:    rng.Float64() * 0.10,
		FlowModLoss:     rng.Float64() * 0.15,
		FlowRemovedLoss: rng.Float64() * 0.30,
		PacketOutLoss:   rng.Float64() * 0.10,
		ReorderRate:     rng.Float64() * 0.20,
		CtrlExtraDelay:  time.Duration(rng.Float64() * float64(4*time.Millisecond)),
		FaultsEnd:       80 * time.Second,
	}
	cfg.FlapEnd = cfg.FlapStart + 20*time.Second + time.Duration(rng.Float64()*float64(20*time.Second))
	if rng.Float64() < 0.7 {
		start := 30*time.Second + time.Duration(rng.Float64()*float64(20*time.Second))
		cfg.RouterCrashes = []faultinject.Window{{Start: start, End: start + 5*time.Second}}
	}
	if rng.Float64() < 0.7 {
		cfg.SwitchRestarts = []time.Duration{
			40*time.Second + time.Duration(rng.Float64()*float64(20*time.Second)),
		}
	}
	return cfg
}

// TestChaosConvergenceProperty is the property-style check: whatever
// seeded random chaos schedule runs, once it ends the switch tables
// always converge to the FlowMemory-derived desired state within one
// audit interval, with nothing leaked and nothing unclassified.
func TestChaosConvergenceProperty(t *testing.T) {
	cfg := chaosTraceConfig()
	cfg.TotalRequests = 240
	cfg.HotServices = 8
	for _, seed := range []int64{11, 23, 42} {
		res, err := RunChaos("nginx", cfg, randomChaosConfig(seed), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Errorf("seed %d: residual table diff %d after post-chaos audit",
				seed, res.ConvergeDelta)
		}
		if res.LeakedPackets != 0 {
			t.Errorf("seed %d: %d pooled packets leaked", seed, res.LeakedPackets)
		}
		if res.Unclassified != 0 {
			t.Errorf("seed %d: %d unclassified failures", seed, res.Unclassified)
		}
	}
}
