package openflow

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// TestFlowIDFoldsActions: the identity reads an action list the way
// apply executes it, and nothing but priority, match and that reading
// goes into it.
func TestFlowIDFoldsActions(t *testing.T) {
	a, b := netem.ParseIP("10.0.0.2"), netem.ParseIP("10.0.0.3")
	m := Match{SrcIP: netem.ParseIP("192.168.1.10"), DstIP: netem.ParseIP("203.0.113.1"), DstPort: 80}
	spec := func(actions ...Action) FlowSpec { return FlowSpec{Priority: 20, Match: m, Actions: actions} }
	same := [][2]FlowSpec{
		{spec(SetDstIP{a}, SetDstIP{b}, Output{1}), spec(SetDstIP{b}, Output{1})},                              // the later set-field wins
		{spec(SetDstPort{81}, SetDstIP{a}, OutputNormal{}), spec(SetDstIP{a}, SetDstPort{81}, OutputNormal{})}, // fields are independent
		{spec(Output{1}, SetDstIP{a}, Drop{}), spec(Output{1})},                                                // nothing runs after the terminal
		{spec(), spec(Drop{})}, // no output is a drop
		{ // timeouts and cookie are not identity
			FlowSpec{Priority: 20, Match: m, Actions: []Action{Output{1}}, IdleTimeout: time.Second, HardTimeout: time.Minute, Cookie: 7},
			spec(Output{1}),
		},
	}
	for i, p := range same {
		if p[0].ID() != p[1].ID() {
			t.Errorf("same %d: %+v and %+v have different identities", i, p[0], p[1])
		}
	}
	differ := []FlowSpec{
		spec(Output{1}), spec(Output{2}), spec(OutputNormal{}), spec(OutputController{}), spec(Drop{}),
		spec(SetDstIP{a}, Output{1}), spec(SetDstIP{b}, Output{1}), spec(SetSrcIP{a}, Output{1}),
		spec(SetDstPort{80}, Output{1}), spec(SetSrcPort{80}, Output{1}), spec(SetDstIP{0}, Output{1}),
		{Priority: 10, Match: m, Actions: []Action{Output{1}}},
		{Priority: 20, Match: Match{InPort: 1, SrcIP: m.SrcIP, DstIP: m.DstIP, DstPort: 80}, Actions: []Action{Output{1}}},
		{Priority: 20, Match: Match{SrcIP: m.DstIP, DstIP: m.SrcIP, DstPort: 80}, Actions: []Action{Output{1}}},
		{Priority: 20, Match: Match{SrcIP: m.SrcIP, DstIP: m.DstIP, SrcPort: 80}, Actions: []Action{Output{1}}},
	}
	for i := range differ {
		for j := i + 1; j < len(differ); j++ {
			if differ[i].ID() == differ[j].ID() {
				t.Errorf("%+v and %+v share an identity", differ[i], differ[j])
			}
		}
	}
}

// TestSnapshotOrder: FlowTable and Flows report one order — priority
// descending, then the match field by field, then install order — and
// install order does not reach it otherwise.
func TestSnapshotOrder(t *testing.T) {
	ip := netem.ParseIP
	want := []FlowSpec{
		{Priority: 20, Match: Match{SrcIP: ip("9.0.0.1"), DstIP: ip("203.0.113.1")}, Cookie: 1}, // numerically, not as text: 9.x before 10.x
		{Priority: 20, Match: Match{SrcIP: ip("10.0.0.2"), SrcPort: 20000, DstIP: ip("192.168.1.10")}, Cookie: 2},
		{Priority: 20, Match: Match{SrcIP: ip("10.0.0.2"), SrcPort: 20001, DstIP: ip("192.168.1.10")}, Cookie: 3},
		{Priority: 20, Match: Match{SrcIP: ip("192.168.1.10"), DstIP: ip("203.0.113.1"), DstPort: 80}, Cookie: 4},
		{Priority: 20, Match: Match{SrcIP: ip("192.168.1.10"), DstIP: ip("203.0.113.1"), DstPort: 80}, Cookie: 5}, // a re-install: after the first
		{Priority: 20, Match: Match{SrcIP: ip("192.168.1.10"), DstIP: ip("203.0.113.2"), DstPort: 80}, Cookie: 6},
		{Priority: 20, Match: Match{InPort: 1}, Cookie: 7},
		{Priority: 10, Match: Match{DstIP: ip("203.0.113.1"), DstPort: 80}, Cookie: 8}, // wildcards first
		{Priority: 10, Match: Match{DstIP: ip("203.0.113.1"), DstPort: 8080}, Cookie: 9},
		{Priority: 10, Match: Match{SrcIP: ip("1.1.1.1")}, Cookie: 10},
	}
	for i := range want {
		want[i].Actions = []Action{Drop{}}
	}
	clk := vclock.New()
	clk.Run(func() {
		e := newOFEnv(clk)
		order := rand.New(rand.NewSource(1)).Perm(len(want))
		// Cookies 4 and 5 tie on priority and match: install them in order.
		i4, i5 := slices.Index(order, 3), slices.Index(order, 4)
		if i4 > i5 {
			order[i4], order[i5] = order[i5], order[i4]
		}
		for _, i := range order {
			e.sw.InstallFlow(want[i])
		}
		table := e.sw.FlowTable()
		flows := e.sw.Flows()
		if len(table) != len(want) || len(flows) != len(want) {
			t.Fatalf("%d specs and %d stats for %d installed flows", len(table), len(flows), len(want))
		}
		for i := range want {
			if table[i].Cookie != want[i].Cookie || flows[i].Cookie != want[i].Cookie {
				t.Errorf("position %d: FlowTable has cookie %d, Flows %d, want %d (%v)", i, table[i].Cookie, flows[i].Cookie, want[i].Cookie, want[i].Match)
			}
		}
	})
}
