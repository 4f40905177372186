package testbed

import (
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/catalog"
	"github.com/c3lab/transparentedge/internal/mobility"
	"github.com/c3lab/transparentedge/internal/trace"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// TestMobilitySessionContinuity drives the full mobility experiment on
// a small walk and checks the strongest property it offers: every
// session round that was sent came back verified, exactly once — the
// round count matches the schedule-derived expectation, so handovers
// lost nothing and duplicated nothing, through the real SDN datapath.
func TestMobilitySessionContinuity(t *testing.T) {
	cfg := MobilityConfig{Clients: 2, Handovers: 6, Interval: time.Second, Seed: 7}
	res, err := RunMobility(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Recompute the experiment's own round budget from the (public,
	// deterministic) walk: sessions run to span + 2 s grace at one round
	// per 250 ms. Every single round must have been verified.
	walk := mobility.RandomWalk(mobility.WalkConfig{
		Clients: cfg.Clients, Zones: 2, Handovers: cfg.Handovers,
		Start: time.Second, Interval: cfg.Interval, Seed: cfg.Seed + 1000,
	})
	perClient := int((walk.Span()+2*time.Second)/(250*time.Millisecond)) + 1
	if want := cfg.Clients * perClient; res.Rounds != want {
		t.Errorf("verified rounds = %d, want %d (zero lost, zero duplicated)", res.Rounds, want)
	}
	if want := int64(res.Rounds) * 64; res.VerifiedBytes != want {
		t.Errorf("verified bytes = %d, want %d", res.VerifiedBytes, want)
	}
	if res.Sessions != cfg.Clients {
		t.Errorf("sessions = %d, want %d", res.Sessions, cfg.Clients)
	}
	if res.Stats.Handovers != int64(cfg.Handovers) {
		t.Errorf("Handovers = %d, want %d", res.Stats.Handovers, cfg.Handovers)
	}
	if res.Stats.ContinuityBreaks != 0 {
		t.Errorf("ContinuityBreaks = %d, want 0", res.Stats.ContinuityBreaks)
	}
	if res.AuditA != 0 || res.AuditB != 0 {
		t.Errorf("post-run audit deltas = %d/%d, want 0/0", res.AuditA, res.AuditB)
	}
	if c := res.HandoverLat.Count(); c != res.Stats.Handovers {
		t.Errorf("handover latency samples = %d, want %d", c, res.Stats.Handovers)
	}
}

// TestMobilityDeterministic: the same config yields byte-identical
// results — the property the golden edgesim output rests on.
func TestMobilityDeterministic(t *testing.T) {
	cfg := MobilityConfig{Clients: 2, Handovers: 4, Interval: time.Second, Seed: 3}
	a, err := RunMobility(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMobility(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != b.Checksum || a.Rounds != b.Rounds || a.VerifiedBytes != b.VerifiedBytes {
		t.Errorf("runs diverge: %x/%d/%d vs %x/%d/%d",
			a.Checksum, a.Rounds, a.VerifiedBytes, b.Checksum, b.Rounds, b.VerifiedBytes)
	}
	if a.Stats != b.Stats {
		t.Errorf("stats diverge:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.HandoverLat.Median() != b.HandoverLat.Median() {
		t.Errorf("handover latency medians diverge: %v vs %v", a.HandoverLat.Median(), b.HandoverLat.Median())
	}
}

// TestMobilityMigration: with Migrate, handovers into zone B trigger a
// deploy at edge-zoneb while live sessions keep their instance.
func TestMobilityMigration(t *testing.T) {
	res, err := RunMobility(MobilityConfig{Clients: 2, Handovers: 4, Interval: time.Second, Seed: 3, Migrate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MigratedInstances == 0 {
		t.Error("no migration despite Migrate and zone-B handovers")
	}
	if res.Stats.ContinuityBreaks != 0 {
		t.Errorf("ContinuityBreaks = %d, want 0", res.Stats.ContinuityBreaks)
	}
}

// TestHandoverAllocs holds one complete handover to 64 allocations
// (measured 22): one mobile client with a live session ping-pongs
// between the two gNBs, and each op is a re-home (link move,
// make-before-break re-steer, route convergence) followed by a verified
// request/response round on the surviving connection, so a handover
// that broke the session fails the test instead of being measured.
func TestHandoverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not apply under -race")
	}
	const ceiling = 64
	clk := vclock.New()
	clk.Run(func() {
		tb, err := New(clk, Options{
			TwoZones:       true,
			MobileClients:  1,
			SwitchFlowIdle: time.Hour,
			MemoryIdle:     time.Hour,
			Seed:           1,
		})
		if err != nil {
			t.Fatal(err)
		}
		asm, _ := catalog.ByKey("asm")
		h, err := tb.RegisterCatalogService(asm, trace.ServiceAddr(0))
		if err != nil {
			t.Fatal(err)
		}
		tb.PrePull(h, "edge-docker")
		if _, err := tb.Controller.PreDeploy(h.Addr, "edge-docker"); err != nil {
			t.Fatal(err)
		}
		conn, err := tb.MobileClient(0).DialTimeout(h.Addr, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		req := []byte("GET / HTTP/1.1\r\n\r\n")
		exchange := func() {
			if err := conn.Send(req); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.RecvTimeout(30 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
		exchange() // installs the redirect flows the handovers re-steer
		toB := true
		got := testing.AllocsPerRun(50, func() {
			tb.RehomeClient(0, toB)
			toB = !toB
			clk.Sleep(time.Second) // let retransmissions settle
			exchange()
		})
		t.Logf("%v allocs per handover", got)
		if got > ceiling {
			t.Errorf("%v allocs per handover, ceiling %d", got, ceiling)
		}
		if n := tb.Controller.Stats().ContinuityBreaks; n != 0 {
			t.Errorf("%d continuity breaks", n)
		}
	})
}
