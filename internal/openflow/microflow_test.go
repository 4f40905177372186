package openflow

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// sinkDev terminates a switch port and records every delivery, standing
// in for the hosts behind it.
type sinkDev struct {
	name string
	got  []string
}

func (d *sinkDev) DeviceName() string { return d.name }

func (d *sinkDev) HandlePacket(pkt *netem.Packet, _ *netem.Port) {
	d.got = append(d.got, fmt.Sprintf("%s %v>%v", d.name, pkt.Src, pkt.Dst))
	pkt.Release()
}

// microEnv is a bare switch with sink devices on every port, driven by
// hand-built packets so each classification is directly observable.
type microEnv struct {
	clk   *vclock.Virtual
	sw    *Switch
	sinks []*sinkDev
}

func newMicroEnv(clk *vclock.Virtual, ports int) *microEnv {
	n := netem.NewNetwork(clk, 1)
	e := &microEnv{clk: clk, sw: NewSwitch(n, "sw", ports)}
	e.sw.CtrlLatency = 0
	for i := 1; i <= ports; i++ {
		d := &sinkDev{name: fmt.Sprintf("p%d", i)}
		e.sinks = append(e.sinks, d)
		n.Connect(&netem.Port{Dev: d}, e.sw.Port(i), netem.LinkConfig{})
	}
	return e
}

// inject runs one packet through the switch pipeline and drains the
// resulting delivery events.
func (e *microEnv) inject(src, dst string, inPort int) {
	pkt := netem.NewPacket()
	pkt.Src = netem.ParseHostPort(src)
	pkt.Dst = netem.ParseHostPort(dst)
	e.sw.HandlePacket(pkt, e.sw.Port(inPort))
	e.clk.Sleep(time.Microsecond)
}

// TestMicroflowInvalidation walks the cache through its whole
// lifecycle: miss, hit, invalidation by InstallFlow, hit on the cached
// flow entry, invalidation by DeleteFlows, invalidation by idle
// eviction, and a cached punt-to-controller classification.
func TestMicroflowInvalidation(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newMicroEnv(clk, 3)
		client := netem.ParseIP("192.168.1.10")
		cloud := netem.ParseIP("203.0.113.1")
		edge := netem.ParseIP("10.0.0.2")
		e.sw.AddRoute(client, 1)
		e.sw.AddRoute(edge, 3)
		e.sw.SetDefaultRoute(2)

		expectStats := func(step string, hits, misses int64) {
			t.Helper()
			h, m := e.sw.MicroStats()
			if h != hits || m != misses {
				t.Fatalf("%s: MicroStats = %d hits / %d misses, want %d / %d", step, h, m, hits, misses)
			}
		}
		expectSink := func(step string, sink, n int) {
			t.Helper()
			if got := len(e.sinks[sink-1].got); got != n {
				t.Fatalf("%s: port %d saw %d packets, want %d", step, sink, got, n)
			}
		}

		// Cold start: NORMAL classification is cached on first sight.
		e.inject("192.168.1.10:40000", "203.0.113.1:80", 1)
		expectStats("first packet", 0, 1)
		expectSink("first packet", 2, 1)
		e.inject("192.168.1.10:40000", "203.0.113.1:80", 1)
		expectStats("repeat packet", 1, 1)
		expectSink("repeat packet", 2, 2)

		// InstallFlow bumps the epoch: the stale NORMAL entry must not
		// shadow the new redirect flow.
		e.sw.InstallFlow(FlowSpec{
			Priority: 10,
			Cookie:   7,
			Match:    Match{DstIP: cloud, DstPort: 80},
			Actions:  []Action{SetDstIP{IP: edge}, Output{Port: 3}},
		})
		e.inject("192.168.1.10:40000", "203.0.113.1:80", 1)
		expectStats("after install", 1, 2)
		expectSink("after install", 3, 1)
		if got := e.sinks[2].got[0]; got != "p3 192.168.1.10:40000>10.0.0.2:80" {
			t.Fatalf("redirect delivered %q", got)
		}

		// The cached flow entry serves the next packet in one probe.
		e.inject("192.168.1.10:40000", "203.0.113.1:80", 1)
		expectStats("cached flow", 2, 2)
		expectSink("cached flow", 3, 2)

		// DeleteFlows bumps the epoch: classification reverts to NORMAL.
		if n := e.sw.DeleteFlows(7); n != 1 {
			t.Fatalf("DeleteFlows removed %d entries, want 1", n)
		}
		e.inject("192.168.1.10:40000", "203.0.113.1:80", 1)
		expectStats("after delete", 2, 3)
		expectSink("after delete", 2, 3)

		// Idle eviction must invalidate the cached classification too.
		e.sw.InstallFlow(FlowSpec{
			Priority:    10,
			Cookie:      8,
			Match:       Match{DstIP: cloud, DstPort: 80},
			Actions:     []Action{SetDstIP{IP: edge}, Output{Port: 3}},
			IdleTimeout: 50 * time.Millisecond,
		})
		e.inject("192.168.1.10:40000", "203.0.113.1:80", 1)
		expectSink("before idle eviction", 3, 3)
		clk.Sleep(200 * time.Millisecond) // let the idle timer evict
		e.inject("192.168.1.10:40000", "203.0.113.1:80", 1)
		expectSink("after idle eviction", 2, 4)

		// Punt-to-controller classifications are cacheable as well: the
		// cached entry replays the punt, it never short-circuits it.
		packetIns, _ := connectMailboxes(e.sw, e.clk)
		e.sw.InstallFlow(FlowSpec{
			Priority: 20,
			Cookie:   9,
			Match:    Match{DstIP: cloud, DstPort: 443},
			Actions:  []Action{OutputController{}},
		})
		e.inject("192.168.1.10:40001", "203.0.113.1:443", 1)
		e.inject("192.168.1.10:40001", "203.0.113.1:443", 1)
		for i := 0; i < 2; i++ {
			pin, ok := packetIns.RecvTimeout(time.Second)
			if !ok {
				t.Fatalf("packet-in %d never arrived", i)
			}
			if pin.InPort != 1 {
				t.Fatalf("packet-in %d from port %d, want 1", i, pin.InPort)
			}
			pin.Pkt.Release()
		}
		punted, _, _ := e.sw.Counters()
		if punted != 2 {
			t.Fatalf("punted = %d, want 2", punted)
		}
		h, m := e.sw.MicroStats()
		if h != 3 || m != 6 {
			t.Fatalf("final MicroStats = %d hits / %d misses, want 3 / 6", h, m)
		}
	})
}

// TestMicroflowDifferential drives an identical pseudo-random packet
// and table-mutation schedule through a cached and an uncached switch
// and demands byte-identical delivery traces, flow counters, and
// switch counters. The microflow cache must be invisible.
func TestMicroflowDifferential(t *testing.T) {
	ips := []string{"192.168.1.10", "192.168.1.11", "10.0.0.2", "203.0.113.1"}
	run := func(micro bool) (trace []string, flows []FlowStats, punted, dropped, normal int64, hits int64) {
		clk := vclock.New()
		clk.Run(func() {
			e := newMicroEnv(clk, 3)
			e.sw.SetMicroflow(micro)
			e.sw.AddRoute(netem.ParseIP(ips[0]), 1)
			e.sw.AddRoute(netem.ParseIP(ips[1]), 1)
			e.sw.AddRoute(netem.ParseIP(ips[2]), 3)
			e.sw.SetDefaultRoute(2)

			rng := rand.New(rand.NewSource(42))
			randPkt := func() (string, string, int) {
				src := fmt.Sprintf("%s:%d", ips[rng.Intn(len(ips))], 40000+rng.Intn(3))
				dst := fmt.Sprintf("%s:%d", ips[rng.Intn(len(ips))], 80+rng.Intn(3))
				return src, dst, 1 + rng.Intn(3)
			}
			specs := []FlowSpec{
				{Priority: 10, Cookie: 1, Match: Match{DstIP: netem.ParseIP(ips[3]), DstPort: 80},
					Actions: []Action{SetDstIP{IP: netem.ParseIP(ips[2])}, Output{Port: 3}}},
				{Priority: 20, Cookie: 2, Match: Match{InPort: 2, DstPort: 81},
					Actions: []Action{Drop{}}},
				{Priority: 5, Cookie: 3, Match: Match{SrcIP: netem.ParseIP(ips[1])},
					Actions: []Action{SetSrcIP{IP: netem.ParseIP(ips[3])}, SetSrcPort{Port: 9999}, OutputNormal{}}},
				{Priority: 30, Cookie: 4, Match: Match{DstIP: netem.ParseIP(ips[2]), DstPort: 82},
					Actions: []Action{OutputController{}}}, // unconnected: counts as punt, packet dropped
			}
			for i := 0; i < 400; i++ {
				switch i {
				case 50:
					e.sw.InstallFlow(specs[0])
				case 120:
					e.sw.InstallFlow(specs[1])
					e.sw.InstallFlow(specs[2])
				case 200:
					e.sw.DeleteFlows(1)
				case 300:
					e.sw.InstallFlow(specs[3])
					e.sw.DeleteFlows(2)
				}
				src, dst, inPort := randPkt()
				e.inject(src, dst, inPort)
			}
			for _, d := range e.sinks {
				trace = append(trace, d.got...)
			}
			flows = e.sw.Flows()
			punted, dropped, normal = e.sw.Counters()
			hits, _ = e.sw.MicroStats()
		})
		return
	}

	cTrace, cFlows, cPunt, cDrop, cNorm, cHits := run(true)
	uTrace, uFlows, uPunt, uDrop, uNorm, uHits := run(false)

	if cHits == 0 {
		t.Fatal("cached run recorded no microflow hits; cache never engaged")
	}
	if uHits != 0 {
		t.Fatalf("uncached run recorded %d microflow hits", uHits)
	}
	if len(cTrace) != len(uTrace) {
		t.Fatalf("trace lengths differ: cached %d, uncached %d", len(cTrace), len(uTrace))
	}
	for i := range cTrace {
		if cTrace[i] != uTrace[i] {
			t.Fatalf("trace diverges at %d: cached %q, uncached %q", i, cTrace[i], uTrace[i])
		}
	}
	if fmt.Sprint(cFlows) != fmt.Sprint(uFlows) {
		t.Fatalf("flow stats diverge:\ncached   %v\nuncached %v", cFlows, uFlows)
	}
	if cPunt != uPunt || cDrop != uDrop || cNorm != uNorm {
		t.Fatalf("counters diverge: cached %d/%d/%d, uncached %d/%d/%d",
			cPunt, cDrop, cNorm, uPunt, uDrop, uNorm)
	}
}
