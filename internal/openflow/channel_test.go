package openflow

import (
	"fmt"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

func puntSpec(addr netem.HostPort, cookie uint64) FlowSpec {
	return FlowSpec{
		Priority: 10,
		Match:    Match{DstIP: addr.IP, DstPort: addr.Port},
		Actions:  []Action{OutputController{}},
		Cookie:   cookie,
	}
}

// TestChannelFaultsDropFlowMods drives InstallFlow through a loss-1.0
// channel: no entry may land, the drop counter must tally every loss,
// and clearing the fault model must restore reliable delivery.
func TestChannelFaultsDropFlowMods(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newOFEnv(clk)
		e.sw.SetChannelFaults(&ChannelFaults{Seed: 1, FlowModLoss: 1.0})
		for i := 0; i < 4; i++ {
			e.sw.InstallFlow(puntSpec(netem.ParseHostPort(fmt.Sprintf("203.0.113.%d:80", i+1)), uint64(i)))
		}
		if got := len(e.sw.FlowTable()); got != 0 {
			t.Errorf("%d entries landed through a loss-1.0 channel", got)
		}
		if st := e.sw.ChannelStats(); st.FlowModDrops != 4 {
			t.Errorf("FlowModDrops = %d, want 4", st.FlowModDrops)
		}
		e.sw.SetChannelFaults(nil)
		e.sw.InstallFlow(puntSpec(netem.ParseHostPort("203.0.113.9:80"), 9))
		if got := len(e.sw.FlowTable()); got != 1 {
			t.Errorf("table has %d entries after clearing faults, want 1", got)
		}
		// Counters survive clearing the fault window.
		if st := e.sw.ChannelStats(); st.Total() != 4 {
			t.Errorf("ChannelStats.Total = %d after clearing, want 4", st.Total())
		}
	})
}

// TestChannelFaultsAreSeededAndKeyed verifies determinism: the same
// seed gives the same per-message verdicts regardless of call
// interleaving (streams are keyed per message identity), and a
// different seed gives a different verdict pattern.
func TestChannelFaultsAreSeededAndKeyed(t *testing.T) {
	verdicts := func(seed int64, order []int) string {
		f := &ChannelFaults{Seed: seed, FlowModLoss: 0.5}
		out := make([]byte, 8)
		for _, i := range order {
			key := fmt.Sprintf("mod/%d", i)
			if f.drop(key, f.FlowModLoss) {
				out[i] = 'D'
			} else {
				out[i] = '.'
			}
		}
		return string(out)
	}
	fwd := []int{0, 1, 2, 3, 4, 5, 6, 7}
	rev := []int{7, 6, 5, 4, 3, 2, 1, 0}
	if a, b := verdicts(3, fwd), verdicts(3, rev); a != b {
		t.Errorf("verdicts depend on call order: %q vs %q", a, b)
	}
	if a, b := verdicts(3, fwd), verdicts(4, fwd); a == b {
		t.Errorf("seeds 3 and 4 produced identical verdicts %q", a)
	}
}

// TestRestartWipesAndNotifies reboots a connected switch: the table
// must be empty afterwards, and the controller side must get a
// Restarted event it can answer with ResyncFrom, which rebuilds the
// table reliably even under a fully lossy channel.
func TestRestartWipesAndNotifies(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newOFEnv(clk)
		connectMailboxes(e.sw, e.clk)
		specs := []FlowSpec{
			puntSpec(netem.ParseHostPort("203.0.113.1:80"), 1),
			puntSpec(netem.ParseHostPort("203.0.113.2:80"), 2),
		}
		for _, s := range specs {
			e.sw.InstallFlow(s)
		}
		if got := len(e.sw.FlowTable()); got != 2 {
			t.Fatalf("table has %d entries before restart, want 2", got)
		}

		events := e.sw.Events()
		e.sw.Restart()
		if got := len(e.sw.Flows()); got != 0 {
			t.Errorf("table has %d entries after restart, want 0", got)
		}
		ev, ok := events.Recv()
		if !ok || !ev.Restarted {
			t.Fatalf("event = %+v, %v; want a Restarted notification", ev, ok)
		}

		// Recovery must not depend on a working unreliable channel.
		e.sw.SetChannelFaults(&ChannelFaults{Seed: 1, FlowModLoss: 1.0})
		e.sw.ResyncFrom(specs)
		if got := len(e.sw.FlowTable()); got != 2 {
			t.Errorf("ResyncFrom rebuilt %d entries, want 2", got)
		}
	})
}

// TestApplyBundleRepairsExactly feeds ApplyBundle an orphan to delete
// and a missing rule to install, under a fully lossy channel: bundles
// are the reliable repair path, so both must take effect, and the
// delete count must reflect only entries that were actually live.
func TestApplyBundleRepairsExactly(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newOFEnv(clk)
		orphan := puntSpec(netem.ParseHostPort("203.0.113.1:80"), 1)
		missing := puntSpec(netem.ParseHostPort("203.0.113.2:80"), 2)
		e.sw.InstallFlow(orphan)
		e.sw.SetChannelFaults(&ChannelFaults{Seed: 1, FlowModLoss: 1.0})

		ghost := puntSpec(netem.ParseHostPort("203.0.113.3:80"), 3) // never installed
		deleted := e.sw.ApplyBundle([]FlowSpec{orphan, ghost}, []FlowSpec{missing})
		if deleted != 1 {
			t.Errorf("deleted = %d, want 1 (the ghost was never live)", deleted)
		}
		table := e.sw.FlowTable()
		if len(table) != 1 || table[0].Match != missing.Match {
			t.Errorf("table after bundle = %+v, want exactly the missing rule", table)
		}
		// The barrier round trip is itself fallible; the bundle is not.
		if e.sw.Barrier() {
			t.Error("barrier survived a loss-1.0 channel")
		}
		e.sw.SetChannelFaults(nil)
		if !e.sw.Barrier() {
			t.Error("barrier failed on a clean channel")
		}
	})
}

// TestDeleteExactRemovesOneOfDuplicates installs the same spec twice
// (the benign-duplicate case reconciliation can produce) and checks
// DELETE_STRICT removes exactly one live entry per call.
func TestDeleteExactRemovesOneOfDuplicates(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newOFEnv(clk)
		spec := puntSpec(netem.ParseHostPort("203.0.113.1:80"), 1)
		e.sw.InstallFlow(spec)
		e.sw.InstallFlow(spec)
		if !e.sw.DeleteExact(spec.Match, spec.Priority) {
			t.Fatal("first DeleteExact found nothing")
		}
		if got := len(e.sw.FlowTable()); got != 1 {
			t.Fatalf("table has %d entries after one strict delete, want 1", got)
		}
		if !e.sw.DeleteExact(spec.Match, spec.Priority) {
			t.Fatal("second DeleteExact found nothing")
		}
		if e.sw.DeleteExact(spec.Match, spec.Priority) {
			t.Error("third DeleteExact deleted from an empty table")
		}
	})
}

// TestPacketInLossDropsThePunt sends traffic at a punt rule through a
// packet-in-lossy channel: the controller mailbox must stay empty and
// the punted copy must not leak from the pool.
func TestPacketInLossDropsThePunt(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newOFEnv(clk)
		pktIns, _ := connectMailboxes(e.sw, e.clk)
		addr := e.cloud.Addr(80)
		e.sw.InstallFlow(puntSpec(addr, 1))
		e.sw.SetChannelFaults(&ChannelFaults{Seed: 1, PacketInLoss: 1.0})

		before := netem.LivePackets()
		// Fire-and-forget SYNs: DialTimeout would retry, so send raw.
		pkt := netem.NewPacket()
		pkt.Src = netem.ParseHostPort("192.168.1.10:50000")
		pkt.Dst = addr
		pkt.Flags = netem.FlagSYN
		e.sw.HandlePacket(pkt, e.sw.Port(1))
		clk.Sleep(100 * time.Millisecond)

		if st := e.sw.ChannelStats(); st.PacketInDrops != 1 {
			t.Errorf("PacketInDrops = %d, want 1", st.PacketInDrops)
		}
		if n := pktIns.Len(); n != 0 {
			t.Errorf("%d packet-ins reached the controller through a loss-1.0 channel", n)
		}
		if leaked := netem.LivePackets() - before; leaked != 0 {
			t.Errorf("%d packets leaked on the packet-in drop path", leaked)
		}
	})
}
