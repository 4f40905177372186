package openflow

import (
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// The classifier oracle: FuzzClassifier decodes its input into a
// schedule of flow installs, cookie deletes, route changes and packets,
// drives it through a real Switch with the microflow cache on, and
// demands that every packet leaves exactly as a linear-scan reference
// says — same egress port, same rewritten addresses, or the same punt
// or drop.

const clsPorts = 3

// clsIPs and clsL4 are the small address universe the schedule draws
// from, so flows overlap and packets collide on cache keys. Index 0 is
// the wildcard in a Match; packets use indices 1..3.
var (
	clsIPs = [...]netem.IP{0, netem.ParseIP("10.0.0.1"), netem.ParseIP("10.0.0.2"), netem.ParseIP("10.0.0.3")}
	clsL4  = [...]uint16{0, 80, 443, 8080}
)

// clsOutcome is what became of one packet: delivered out of port, or
// punted to the controller, with the addresses it left with. A dropped
// packet has no outcome.
type clsOutcome struct {
	port     int // 0 for a punt
	src, dst netem.HostPort
}

// clsSink terminates one switch port.
type clsSink struct {
	port int
	got  *[]clsOutcome
}

func (d *clsSink) DeviceName() string { return "sink" }

func (d *clsSink) HandlePacket(pkt *netem.Packet, _ *netem.Port) {
	*d.got = append(*d.got, clsOutcome{port: d.port, src: pkt.Src, dst: pkt.Dst})
	pkt.Release()
}

// clsController records punts.
type clsController struct{ got *[]clsOutcome }

func (c clsController) PacketIn(_ *Switch, pin PacketIn) {
	*c.got = append(*c.got, clsOutcome{src: pin.Pkt.Src, dst: pin.Pkt.Dst})
	pin.Pkt.Release()
}

func (clsController) FlowRemoved(*Switch, FlowRemoved) {}

// clsRef is the reference classifier: the installed flows in one slice,
// highest priority first and in install order within a priority, and
// the NORMAL routes. The first flow that covers a packet wins.
type clsRef struct {
	flows  []FlowSpec
	routes map[netem.IP]int
	def    int
}

func (r *clsRef) install(f FlowSpec) {
	i := 0
	for i < len(r.flows) && r.flows[i].Priority >= f.Priority {
		i++
	}
	r.flows = append(r.flows, FlowSpec{})
	copy(r.flows[i+1:], r.flows[i:])
	r.flows[i] = f
}

func (r *clsRef) delete(cookie uint64) {
	kept := r.flows[:0]
	for _, f := range r.flows {
		if f.Cookie != cookie {
			kept = append(kept, f)
		}
	}
	r.flows = kept
}

// covers is the match test written out field by field.
func clsCovers(m Match, src, dst netem.HostPort, in int) bool {
	return (m.InPort == 0 || m.InPort == in) &&
		(m.SrcIP == 0 || m.SrcIP == src.IP) &&
		(m.SrcPort == 0 || m.SrcPort == src.Port) &&
		(m.DstIP == 0 || m.DstIP == dst.IP) &&
		(m.DstPort == 0 || m.DstPort == dst.Port)
}

// out resolves an egress port to an outcome; ports outside the switch
// drop.
func clsOut(port int, src, dst netem.HostPort) []clsOutcome {
	if port < 1 || port > clsPorts {
		return nil
	}
	return []clsOutcome{{port: port, src: src, dst: dst}}
}

func (r *clsRef) normal(src, dst netem.HostPort) []clsOutcome {
	port, ok := r.routes[dst.IP]
	if !ok {
		port = r.def
	}
	return clsOut(port, src, dst)
}

func (r *clsRef) classify(src, dst netem.HostPort, in int) []clsOutcome {
	for _, f := range r.flows {
		if !clsCovers(f.Match, src, dst, in) {
			continue
		}
		for _, a := range f.Actions {
			switch act := a.(type) {
			case SetDstIP:
				dst.IP = act.IP
			case SetDstPort:
				dst.Port = act.Port
			case SetSrcIP:
				src.IP = act.IP
			case SetSrcPort:
				src.Port = act.Port
			case Output:
				return clsOut(act.Port, src, dst)
			case OutputNormal:
				return r.normal(src, dst)
			case OutputController:
				return []clsOutcome{{src: src, dst: dst}}
			case Drop:
				return nil
			}
		}
		return nil
	}
	return r.normal(src, dst)
}

// clsReader hands out input bytes; an exhausted input reads zeros.
type clsReader []byte

func (r *clsReader) next(n int) int {
	if len(*r) == 0 {
		return 0
	}
	v := (*r)[0]
	*r = (*r)[1:]
	return int(v) % n
}

func (r *clsReader) hostPort() netem.HostPort {
	return netem.HostPort{IP: clsIPs[1+r.next(3)], Port: clsL4[1+r.next(3)]}
}

// flowSpec decodes one flow: priority, the five match fields (each may
// be a wildcard), up to three set-fields, a terminal (an output port —
// possibly one the switch lacks — NORMAL, controller, drop, or none)
// and a cookie.
func (r *clsReader) flowSpec() FlowSpec {
	f := FlowSpec{Priority: r.next(4)}
	f.Match = Match{
		InPort:  r.next(clsPorts + 1),
		SrcIP:   clsIPs[r.next(4)],
		SrcPort: clsL4[r.next(4)],
		DstIP:   clsIPs[r.next(4)],
		DstPort: clsL4[r.next(4)],
	}
	a := r.next(256)
	if a&1 != 0 {
		f.Actions = append(f.Actions, SetDstIP{clsIPs[1+r.next(3)]})
	}
	if a&2 != 0 {
		f.Actions = append(f.Actions, SetDstPort{clsL4[1+r.next(3)]})
	}
	if a&4 != 0 {
		f.Actions = append(f.Actions, SetSrcPort{clsL4[1+r.next(3)]})
	}
	switch (a >> 3) % 5 {
	case 0:
		f.Actions = append(f.Actions, Output{r.next(clsPorts + 2)})
	case 1:
		f.Actions = append(f.Actions, OutputNormal{})
	case 2:
		f.Actions = append(f.Actions, OutputController{})
	case 3:
		f.Actions = append(f.Actions, Drop{})
	}
	f.Cookie = uint64(r.next(4))
	return f
}

// FuzzClassifier is the classifier oracle. Input bytes, in order: an
// opcode, then its operands.
//
//	0, 1  install a flow (see flowSpec)
//	2     delete the flows with a cookie (0..3)
//	3     change a route: the default route, or a host route
//	4     one packet: in-port, source, destination
//	5     a flood of microCap+1 packets from distinct source ports,
//	      overflowing the microflow cache (once per input)
func FuzzClassifier(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		r := clsReader(data)
		clk := vclock.New()
		clk.Run(func() {
			n := netem.NewNetwork(clk, 1)
			sw := NewSwitch(n, "sw", clsPorts)
			sw.CtrlLatency = 0
			var got []clsOutcome
			for p := 1; p <= clsPorts; p++ {
				n.Connect(&netem.Port{Dev: &clsSink{port: p, got: &got}}, sw.Port(p), netem.LinkConfig{})
			}
			sw.Connect(clsController{got: &got})
			ref := &clsRef{routes: make(map[netem.IP]int), def: -1}

			// send injects packets back to back, drains the deliveries
			// and compares them with the reference in order.
			send := func(in int, srcs, dsts []netem.HostPort) {
				var want []clsOutcome
				for i := range srcs {
					want = append(want, ref.classify(srcs[i], dsts[i], in)...)
					pkt := netem.NewPacket()
					pkt.Src, pkt.Dst = srcs[i], dsts[i]
					sw.HandlePacket(pkt, sw.Port(in))
				}
				clk.Sleep(time.Microsecond)
				if len(got) != len(want) {
					t.Fatalf("in-port %d, %v>%v: switch gave %d outcomes %v, reference %d %v",
						in, srcs[0], dsts[0], len(got), got, len(want), want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("in-port %d, packet %d: switch %+v, reference %+v", in, i, got[i], want[i])
					}
				}
				got = got[:0]
			}

			flooded := false
			for len(r) > 0 {
				switch r.next(6) {
				case 0, 1:
					spec := r.flowSpec()
					sw.InstallFlow(spec)
					ref.install(spec)
				case 2:
					cookie := uint64(r.next(4))
					sw.DeleteFlows(cookie)
					ref.delete(cookie)
				case 3:
					if r.next(4) == 0 {
						port := r.next(clsPorts + 1)
						sw.SetDefaultRoute(port)
						ref.def = port
					} else {
						ip, port := clsIPs[1+r.next(3)], r.next(clsPorts+1)
						sw.AddRoute(ip, port)
						ref.routes[ip] = port
					}
				case 4:
					in := 1 + r.next(clsPorts)
					src := r.hostPort()
					send(in, []netem.HostPort{src}, []netem.HostPort{r.hostPort()})
				case 5:
					if flooded {
						continue
					}
					flooded = true
					dst := r.hostPort()
					srcs := make([]netem.HostPort, microCap+1)
					dsts := make([]netem.HostPort, len(srcs))
					for i := range srcs {
						srcs[i] = netem.HostPort{IP: clsIPs[1], Port: uint16(10000 + i)}
						dsts[i] = dst
					}
					send(1, srcs, dsts)
				}
			}
		})
	})
}
