package openflow

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/c3lab/transparentedge/internal/netem"
)

// TestStringsMatchFmt: Match.String and flowName, which build their
// strings with strconv, give what their former fmt forms gave, over
// random addresses and ports with wildcards (zero fields) common — the
// fault streams' keys, and with them every fault draw, depend on it.
func TestStringsMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ip := func() netem.IP {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return netem.IP(0xffffffff)
		}
		return netem.IP(rng.Uint32())
	}
	port := func() uint16 {
		if rng.Intn(3) == 0 {
			return []uint16{0, 65535}[rng.Intn(2)]
		}
		return uint16(rng.Intn(1 << 16))
	}
	wild := func(ip netem.IP) string {
		if ip == 0 {
			return "*"
		}
		return ip.String()
	}
	for i := 0; i < 5000; i++ {
		m := Match{InPort: rng.Intn(5) - 1, SrcIP: ip(), SrcPort: port(), DstIP: ip(), DstPort: port()}
		if rng.Intn(8) == 0 {
			m.InPort = []int{-1 << 63, 1<<63 - 1}[rng.Intn(2)]
		}
		want := fmt.Sprintf("in=%d %s:%d>%s:%d", m.InPort, wild(m.SrcIP), m.SrcPort, wild(m.DstIP), m.DstPort)
		if got := m.String(); got != want {
			t.Fatalf("Match%+v.String() = %q, want %q", m, got, want)
		}
		pkt := &netem.Packet{Src: netem.HostPort{IP: ip(), Port: port()}, Dst: netem.HostPort{IP: ip(), Port: port()}}
		if got, want := flowName(pkt), fmt.Sprintf("%s>%s", pkt.Src, pkt.Dst); got != want {
			t.Fatalf("flowName(%v>%v) = %q, want %q", pkt.Src, pkt.Dst, got, want)
		}
	}
}
