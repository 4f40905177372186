package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/openflow"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// handoverRig wires TWO gNB switches to one controller: clusters and
// the controller hang off gnb1, gnb2 reaches everything over a trunk.
// Handover tests move a (virtual) client between the two.
type handoverRig struct {
	ctrl       *Controller
	gnb1, gnb2 *openflow.Switch
	svc        *Service
}

// start=false leaves the controller's event loops (packet-in, switch
// watchers) off: handover and reconciliation are direct calls, so tests
// that need a deterministic mid-handover switch restart can keep the
// restart watcher from racing the handover's own bundle exchanges.
func newHandoverRig(t *testing.T, clk *vclock.Virtual, start bool, mut func(*Config), stubs ...*stubCluster) *handoverRig {
	t.Helper()
	n := netem.NewNetwork(clk, 1)
	gnb1 := openflow.NewSwitch(n, "gnb1", len(stubs)+2)
	gnb2 := openflow.NewSwitch(n, "gnb2", 1)
	for i, st := range stubs {
		host := n.NewHost(st.name, netem.ParseIP(fmt.Sprintf("10.0.%d.2", i)))
		n.Connect(host.NIC(), gnb1.Port(i+1), netem.LinkConfig{Latency: 200 * time.Microsecond})
		gnb1.AddRoute(host.IP(), i+1)
		st.clk = clk
		st.host = host
		st.port = 20000
	}
	ctrlHost := n.NewHost("ctrl", netem.ParseIP("10.0.254.1"))
	ctrlPort := len(stubs) + 1
	n.Connect(ctrlHost.NIC(), gnb1.Port(ctrlPort), netem.LinkConfig{Latency: 200 * time.Microsecond})
	gnb1.AddRoute(ctrlHost.IP(), ctrlPort)
	trunkPort := len(stubs) + 2
	n.Connect(gnb1.Port(trunkPort), gnb2.Port(1), netem.LinkConfig{Latency: 2 * time.Millisecond})
	gnb2.SetDefaultRoute(1)

	clusters := make([]cluster.Cluster, len(stubs))
	for i, st := range stubs {
		clusters[i] = st
	}
	cfg := Config{
		Host:          ctrlHost,
		Switch:        gnb1,
		ExtraSwitches: []*openflow.Switch{gnb2},
		Clusters:      clusters,
		ProbeInterval: 10 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	ctrl, err := New(clk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if start {
		ctrl.Start()
	}
	svc, err := ctrl.RegisterService(netem.ParseHostPort("203.0.113.1:80"), leanNginx)
	if err != nil {
		t.Fatal(err)
	}
	return &handoverRig{ctrl: ctrl, gnb1: gnb1, gnb2: gnb2, svc: svc}
}

// attach puts a client behind gnb1 with a served, memorized flow — the
// state an ordinary dispatched request leaves behind.
func (rig *handoverRig) attach(client netem.IP, inst cluster.Instance) {
	rig.ctrl.fm.Remember(client, rig.svc.Addr, rig.svc.Name, inst)
	rig.ctrl.clients.track(client, ClientLocation{
		Switch: rig.gnb1.DeviceName(), InPort: 9, LastSeen: rig.ctrl.clk.Now(),
	})
	atomic.AddInt64(&rig.ctrl.stats.FlowsInstalled, 1)
	for _, spec := range rig.ctrl.redirectSpecs(client, rig.svc, inst) {
		rig.gnb1.InstallFlow(spec)
	}
}

// redirectCount counts per-client rewrite rules on a switch.
func redirectCount(sw *openflow.Switch) int {
	n := 0
	for _, f := range sw.FlowTable() {
		if f.Priority == redirectPriority {
			n++
		}
	}
	return n
}

func TestHandoverMakeBeforeBreak(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}}
		rig := newHandoverRig(t, clk, true, nil, near)
		inst, err := rig.ctrl.PreDeploy(rig.svc.Addr, "near")
		if err != nil {
			t.Fatal(err)
		}
		client := netem.ParseIP("192.168.1.10")
		rig.attach(client, inst)
		if n := redirectCount(rig.gnb1); n != 2 {
			t.Fatalf("gnb1 redirect flows = %d before handover, want 2", n)
		}

		rep := rig.ctrl.Handover(client, rig.gnb2, 3)
		if rep.From != "gnb1" || rep.To != "gnb2" || rep.ReSteered != 1 || rep.ContinuityBreak {
			t.Fatalf("report = %+v", rep)
		}
		if n := redirectCount(rig.gnb2); n != 2 {
			t.Errorf("gnb2 redirect flows = %d, want 2 (make)", n)
		}
		if n := redirectCount(rig.gnb1); n != 0 {
			t.Errorf("gnb1 redirect flows = %d, want 0 (break)", n)
		}
		if loc, ok := rig.ctrl.ClientLocation(client); !ok || loc.Switch != "gnb2" || loc.InPort != 3 {
			t.Errorf("client location = %+v, %v, want gnb2 port 3", loc, ok)
		}
		s := rig.ctrl.Stats()
		if s.Handovers != 1 || s.ReSteeredFlows != 1 || s.ContinuityBreaks != 0 {
			t.Errorf("Stats = Handovers %d ReSteered %d Breaks %d, want 1/1/0",
				s.Handovers, s.ReSteeredFlows, s.ContinuityBreaks)
		}
		if c := rig.ctrl.HandoverLatency().Count(); c != 1 {
			t.Errorf("HandoverLatency samples = %d, want 1", c)
		}
		// The controller's desired state agrees with both switches: the
		// handover left no orphans and no missing flows anywhere.
		if d := rig.ctrl.AuditDiff(rig.gnb1); d != 0 {
			t.Errorf("AuditDiff(gnb1) = %d, want 0", d)
		}
		if d := rig.ctrl.AuditDiff(rig.gnb2); d != 0 {
			t.Errorf("AuditDiff(gnb2) = %d, want 0", d)
		}

		// Same-switch handover is a no-op that only refreshes the port.
		rep = rig.ctrl.Handover(client, rig.gnb2, 5)
		if rep.ReSteered != 0 || rig.ctrl.Stats().Handovers != 1 {
			t.Errorf("same-switch handover counted: %+v", rep)
		}
		if loc, _ := rig.ctrl.ClientLocation(client); loc.InPort != 5 {
			t.Errorf("in-port not refreshed: %+v", loc)
		}
	})
}

// TestHandoverMidRestartReconciles is the orphan-flow coverage: the old
// switch restarts (wiping its table) just before the break step runs.
// The strict-delete finds nothing, which is counted as exactly one
// continuity break, and reconciliation afterwards converges AuditDiff
// to zero on both switches without counting a second break. The rig's
// event loops stay off so the restart watcher cannot heal the table
// between the restart and the break (outside tests that race is
// welcome; here the empty-table case must happen deterministically).
func TestHandoverMidRestartReconciles(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}}
		rig := newHandoverRig(t, clk, false, nil, near)
		inst, err := rig.ctrl.PreDeploy(rig.svc.Addr, "near")
		if err != nil {
			t.Fatal(err)
		}
		client := netem.ParseIP("192.168.1.10")
		rig.attach(client, inst)

		// The switch dies mid-handover: its table is empty when the
		// handover's break step strict-deletes.
		rig.gnb1.Restart()
		rep := rig.ctrl.Handover(client, rig.gnb2, 3)
		if !rep.ContinuityBreak {
			t.Fatal("restart-wiped delete not reported as a continuity break")
		}
		if s := rig.ctrl.Stats(); s.ContinuityBreaks != 1 {
			t.Fatalf("ContinuityBreaks = %d, want 1", s.ContinuityBreaks)
		}

		// Reconcile and audit: both switches must match desired state
		// exactly — the lost punt rules come back, no orphans remain.
		rig.ctrl.ResyncNow()
		if d := rig.ctrl.AuditDiff(rig.gnb1); d != 0 {
			t.Errorf("AuditDiff(gnb1) = %d after resync, want 0", d)
		}
		if d := rig.ctrl.AuditDiff(rig.gnb2); d != 0 {
			t.Errorf("AuditDiff(gnb2) = %d after resync, want 0", d)
		}

		// Moving back deletes the (present) flows on gnb2: reconciliation
		// and the return trip must not double-count the break.
		rep = rig.ctrl.Handover(client, rig.gnb1, 9)
		if rep.ContinuityBreak {
			t.Error("return handover reported a break against a healthy switch")
		}
		if s := rig.ctrl.Stats(); s.Handovers != 2 || s.ContinuityBreaks != 1 {
			t.Errorf("Handovers=%d ContinuityBreaks=%d, want 2/1", s.Handovers, s.ContinuityBreaks)
		}
	})
}

// TestHandoverMigratesService: with MigrateOnHandover, a handover into
// a zone whose optimal edge differs deploys the service there in the
// background — and a handover back does not re-migrate (the old zone's
// edge still runs it).
func TestHandoverMigratesService(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		edgeA := &stubCluster{name: "edge-a", loc: cluster.Location{Latency: time.Millisecond}}
		edgeB := &stubCluster{name: "edge-b", loc: cluster.Location{Latency: 10 * time.Millisecond}}
		rig := newHandoverRig(t, clk, true, func(cfg *Config) {
			cfg.MigrateOnHandover = true
			// Seen from gnb2 the proximity order flips: edge-b is local.
			cfg.ZoneLatency = map[string]map[string]time.Duration{
				"gnb2": {"edge-a": 10 * time.Millisecond, "edge-b": time.Millisecond},
			}
			cfg.CandidateTTL = -1 // no stale snapshots across handovers
		}, edgeA, edgeB)
		inst, err := rig.ctrl.PreDeploy(rig.svc.Addr, "edge-a")
		if err != nil {
			t.Fatal(err)
		}
		client := netem.ParseIP("192.168.1.10")
		rig.attach(client, inst)

		rep := rig.ctrl.Handover(client, rig.gnb2, 3)
		if rep.Migrated != 1 {
			t.Fatalf("Migrated = %d, want 1", rep.Migrated)
		}
		clk.Sleep(5 * time.Second) // background deploy completes
		if len(edgeB.Instances(rig.svc.Name)) != 1 {
			t.Error("service did not come up at edge-b")
		}
		// The session's flows still point at the OLD instance: migration
		// must not cut over live sessions.
		if got, ok := rig.ctrl.fm.Lookup(client, rig.svc.Addr); !ok || got != inst {
			t.Errorf("memorized instance = %+v, %v — migration touched a live session", got, ok)
		}
		if s := rig.ctrl.Stats(); s.MigratedInstances != 1 {
			t.Errorf("MigratedInstances = %d, want 1", s.MigratedInstances)
		}

		// Back to gnb1: edge-a still runs the service, nothing to migrate.
		rep = rig.ctrl.Handover(client, rig.gnb1, 9)
		if rep.Migrated != 0 {
			t.Errorf("return handover migrated %d, want 0", rep.Migrated)
		}
		if s := rig.ctrl.Stats(); s.MigratedInstances != 1 {
			t.Errorf("MigratedInstances = %d after return, want 1", s.MigratedInstances)
		}
	})
}
