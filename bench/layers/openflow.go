package layers

import (
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/openflow"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// sink counts and releases every packet delivered to it.
type sink struct{ got int }

func (s *sink) DeviceName() string { return "sink" }

func (s *sink) HandlePacket(pkt *netem.Packet, _ *netem.Port) {
	s.got++
	pkt.Release()
}

var (
	ofClientBase = netem.ParseIP("100.64.0.0")
	ofService    = netem.ParseHostPort("203.0.113.1:80")
	ofInstance   = netem.ParseHostPort("10.0.0.2:20000")
)

// redirect is the per-client forward rule the controller installs.
func redirect(client int, cookie uint64) openflow.FlowSpec {
	return openflow.FlowSpec{
		Priority: 20,
		Match:    openflow.Match{SrcIP: ofClientBase + netem.IP(client), DstIP: ofService.IP, DstPort: ofService.Port},
		Actions:  []openflow.Action{openflow.SetDstIP{IP: ofInstance.IP}, openflow.SetDstPort{Port: ofInstance.Port}, openflow.Output{Port: 1}},
		Cookie:   cookie,
	}
}

// tableRig is a switch carrying `resident` per-client redirect rules
// plus the service's intercept rule, with a sink behind port 1.
type tableRig struct {
	clk  *vclock.Virtual
	sw   *openflow.Switch
	sink *sink
	in   *netem.Port
}

func newTableRig(clk *vclock.Virtual, resident int) *tableRig {
	n := netem.NewNetwork(clk, 1)
	r := &tableRig{clk: clk, sw: openflow.NewSwitch(n, "sw", 2), sink: &sink{}}
	r.sw.CtrlLatency = 0
	n.Connect(&netem.Port{Dev: r.sink}, r.sw.Port(1), netem.LinkConfig{})
	r.in = r.sw.Port(2)
	r.sw.InstallFlow(openflow.FlowSpec{
		Priority: 10,
		Match:    openflow.Match{DstIP: ofService.IP, DstPort: ofService.Port},
		Actions:  []openflow.Action{openflow.Drop{}},
	})
	for i := 0; i < resident; i++ {
		r.sw.InstallFlow(redirect(i, 1))
	}
	return r
}

// send pushes n packets through the table, the i-th from client
// pick(i), yielding now and then so the sink's link drains.
func (r *tableRig) send(n int, pick func(i int) int) {
	for i := 0; i < n; i++ {
		pkt := netem.NewPacket()
		pkt.Src = netem.HostPort{IP: ofClientBase + netem.IP(pick(i)), Port: 40000}
		pkt.Dst = ofService
		r.sw.HandlePacket(pkt, r.in)
		if i&511 == 511 {
			r.clk.Sleep(time.Microsecond)
		}
	}
	r.clk.Sleep(time.Microsecond)
}

// lookupMiss classifies packets of ever-changing clients against a
// 100 k-entry table with the microflow cache off: the tuple-space
// lookup every first packet of a flow pays.
func lookupMiss(m *M) {
	clk := vclock.New()
	clk.Run(func() {
		resident := m.Resident(100_000)
		r := newTableRig(clk, resident)
		r.sw.SetMicroflow(false)
		m.Measure(nil, func(n int) {
			r.send(n, func(i int) int { return i * 7919 % resident })
		})
		if want := measurements * m.N; r.sink.got != want {
			m.Failf("%d of %d packets matched their redirect rule", r.sink.got, want)
		}
	})
}

// microflowHit re-sends packets of 64 established flows: the
// exact-match cache in front of the classifier.
func microflowHit(m *M) {
	clk := vclock.New()
	clk.Run(func() {
		r := newTableRig(clk, m.Resident(10_000))
		pick := func(i int) int { return i & 63 }
		r.send(64, pick)
		hits0, _ := r.sw.MicroStats()
		m.Measure(nil, func(n int) { r.send(n, pick) })
		hits1, _ := r.sw.MicroStats()
		if want := int64(measurements * m.N); hits1-hits0 != want {
			m.Failf("%d microflow hits for %d packets", hits1-hits0, want)
		}
		if want := 64 + measurements*m.N; r.sink.got != want {
			m.Failf("%d of %d packets delivered", r.sink.got, want)
		}
	})
}

// flowInstall adds per-client rules to a 100 k-entry table.
func flowInstall(m *M) {
	clk := vclock.New()
	clk.Run(func() {
		resident := m.Resident(100_000)
		r := newTableRig(clk, resident)
		m.Measure(func() { r.sw.DeleteFlows(2) }, func(n int) {
			for i := 0; i < n; i++ {
				r.sw.InstallFlow(redirect(resident+i, 2))
			}
		})
		if got, want := len(r.sw.FlowTable()), 1+resident+m.N; got != want {
			m.Failf("table holds %d entries, want %d", got, want)
		}
	})
}

// flowDeleteExact strict-deletes per-client rules from a 100 k-entry
// table (the break step of a handover).
func flowDeleteExact(m *M) {
	clk := vclock.New()
	clk.Run(func() {
		resident := m.Resident(100_000)
		r := newTableRig(clk, resident)
		deleted := 0
		m.Measure(func() {
			for i := 0; i < m.N; i++ {
				r.sw.InstallFlow(redirect(resident+i, 2))
			}
		}, func(n int) {
			for i := 0; i < n; i++ {
				if r.sw.DeleteExact(redirect(resident+i, 2).Match, 20) {
					deleted++
				}
			}
		})
		if want := measurements * m.N; deleted != want {
			m.Failf("DeleteExact removed %d of %d rules", deleted, want)
		}
		if got, want := len(r.sw.FlowTable()), 1+resident; got != want {
			m.Failf("table holds %d entries, want %d", got, want)
		}
	})
}
