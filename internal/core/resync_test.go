package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/openflow"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// auditRig is a controller and one switch holding a converged table of
// redirect pairs: flows/2 memorized clients behind the switch, each
// with its forward and reverse rule installed.
type auditRig struct {
	*resilienceRig
	inst    cluster.Instance
	clients []netem.IP
}

// auditBase is the first client address of an auditRig; strays come
// from the block above the clients.
var auditBase = netem.ParseIP("100.64.0.0")

// auditRoute is a host route an auditRig adds when it is built and
// touch adds again.
var auditRoute = netem.ParseIP("198.51.100.1")

// touch bumps the switch's table version and changes nothing the audit
// reads, so that the next audit takes the full path: it re-adds a route
// the switch already has.
func (rig *auditRig) touch() { rig.sw.AddRoute(auditRoute, 1) }

func newAuditRig(t testing.TB, clk *vclock.Virtual, flows int, mut func(*Config)) *auditRig {
	t.Helper()
	near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}, pulled: true, created: true}
	rig := &auditRig{resilienceRig: newResilienceRig(t, clk, func(cfg *Config) {
		cfg.SwitchFlowIdle = 24 * time.Hour
		cfg.MemoryIdle = 24 * time.Hour
		if mut != nil {
			mut(cfg)
		}
	}, near)}
	rig.inst = cluster.Instance{Addr: near.host.Addr(near.port), Cluster: near.name}
	var specs []openflow.FlowSpec
	for i := 0; i < flows/2; i++ {
		client := auditBase + netem.IP(i)
		rig.clients = append(rig.clients, client)
		rig.ctrl.fm.Remember(client, rig.svc.Addr, rig.svc.Name, rig.inst)
		rig.ctrl.clients.track(client, ClientLocation{Switch: rig.sw.DeviceName(), InPort: 3, LastSeen: clk.Now()})
		specs = rig.ctrl.appendRedirectSpecs(specs, client, rig.svc, rig.inst)
	}
	rig.sw.ApplyBundle(nil, specs)
	rig.touch()
	// Without the memory the redirects are not desired state, only exempt.
	if d := rig.ctrl.AuditDiff(rig.sw); d != 0 && !rig.ctrl.cfg.DisableFlowMemory {
		t.Fatalf("fresh audit rig differs from desired state by %d flows", d)
	}
	return rig
}

// diverge makes about 1 % of the table wrong, half each way: the
// redirect pairs of some memorized clients vanish from the switch, and
// as many pairs appear for clients no memory justifies. round varies
// which clients are hit.
func (rig *auditRig) diverge(round int) (missing, orphans int) {
	pairs := max(1, len(rig.clients)/200)
	var lost, stray []openflow.FlowSpec
	for i := 0; i < pairs; i++ {
		victim := rig.clients[(round*pairs+i)*7919%len(rig.clients)]
		lost = rig.ctrl.appendRedirectSpecs(lost, victim, rig.svc, rig.inst)
		ghost := auditBase + netem.IP(len(rig.clients)+i)
		stray = rig.ctrl.appendRedirectSpecs(stray, ghost, rig.svc, rig.inst)
	}
	missing = rig.sw.ApplyBundle(lost, nil)
	rig.sw.ApplyBundle(nil, stray)
	return missing, len(stray)
}

// BenchmarkAudit measures one anti-entropy pass over a table of the
// named size: the flow-stats snapshot, the desired state, the diff, and
// — in the divergent case, where 1 % of the table is wrong before every
// pass — the repair bundle. ns/flow and allocs/flow are the point: the
// pass must cost the same per flow at 100 k flows as at 1 k.
func BenchmarkAudit(b *testing.B) {
	for _, size := range []struct {
		name  string
		flows int
	}{{"1k", 1000}, {"10k", 10000}, {"100k", 100000}} {
		for _, divergent := range []bool{false, true} {
			name := size.name + "/converged"
			if divergent {
				name = size.name + "/1pct-divergent"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var mallocs uint64
				clk := vclock.New()
				clk.Run(func() {
					rig := newAuditRig(b, clk, size.flows, nil)
					var ms runtime.MemStats
					b.ResetTimer()
					b.StopTimer()
					for i := 0; i < b.N; i++ {
						wrong := 0
						if divergent {
							missing, orphans := rig.diverge(i)
							wrong = missing + orphans
						} else {
							rig.touch() // or the pass skips the diff
						}
						before := rig.ctrl.Stats()
						runtime.ReadMemStats(&ms)
						m0 := ms.Mallocs
						b.StartTimer()
						rig.ctrl.auditSwitch(rig.sw)
						b.StopTimer()
						runtime.ReadMemStats(&ms)
						mallocs += ms.Mallocs - m0
						after := rig.ctrl.Stats()
						if got := int(after.OrphanFlowsRemoved - before.OrphanFlowsRemoved + after.ReinstalledFlows - before.ReinstalledFlows); got != wrong {
							b.Fatalf("audit repaired %d flows, %d were wrong", got, wrong)
						}
					}
				})
				perFlow := float64(b.N) * float64(size.flows)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perFlow, "ns/flow")
				b.ReportMetric(float64(mallocs)/perFlow, "allocs/flow")
			})
		}
	}
}

// flowIdent is the reconciler's former flow identity — a string rendered
// for every flow, four times per audit — kept as the oracle
// openflow.FlowID is checked against. Its %v prints action values
// without their types, so it cannot tell SetSrcPort{80} from
// SetDstPort{80}, nor NORMAL from controller from drop; no two specs
// the controller builds differ only there.
func flowIdent(spec openflow.FlowSpec) string {
	return fmt.Sprintf("%d|%s|%v", spec.Priority, spec.Match, spec.Actions)
}

// actionTypes renders what flowIdent leaves out: the actions' types.
func actionTypes(spec openflow.FlowSpec) string {
	s := ""
	for _, a := range spec.Actions {
		s += fmt.Sprintf("%T ", a)
	}
	return s
}

// oracleDiff is the reconciler's former diff: two string sets.
func oracleDiff(actual, desired []openflow.FlowSpec) (orphans, missing []openflow.FlowSpec) {
	have := make(map[string]struct{}, len(actual))
	for _, spec := range actual {
		have[flowIdent(spec)] = struct{}{}
	}
	want := make(map[string]struct{}, len(desired))
	for _, spec := range desired {
		want[flowIdent(spec)] = struct{}{}
	}
	for _, spec := range actual {
		if _, ok := want[flowIdent(spec)]; !ok {
			orphans = append(orphans, spec)
		}
	}
	for _, spec := range desired {
		if _, ok := have[flowIdent(spec)]; !ok {
			missing = append(missing, spec)
		}
	}
	return orphans, missing
}

// constructorSpecs collects flow specs from every place the controller
// builds them: punt rules, both shapes of appendRedirectSpecs (rewrite pair
// and origin forward), and what a handover re-steers onto the new
// switch. Every combination appears at least twice, built separately.
func constructorSpecs(t *testing.T) []openflow.FlowSpec {
	t.Helper()
	var specs []openflow.FlowSpec
	clk := vclock.New()
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}}
		rig := newHandoverRig(t, clk, false, nil, near)
		svcs := []*Service{rig.svc}
		for _, addr := range []string{"203.0.113.2:80", "203.0.113.1:8080"} {
			svc, err := rig.ctrl.RegisterService(netem.ParseHostPort(addr), leanNginx)
			if err != nil {
				t.Fatal(err)
			}
			svcs = append(svcs, svc)
		}
		specs = append(specs, rig.ctrl.desiredFlows(rig.gnb1, new(auditBuffers))...) // the punt rules
		specs = append(specs, rig.ctrl.desiredFlows(rig.gnb2, new(auditBuffers))...)
		clients := []netem.IP{netem.ParseIP("192.168.1.10"), netem.ParseIP("192.168.1.11")}
		for round := 0; round < 2; round++ {
			for _, svc := range svcs {
				insts := []cluster.Instance{
					{Addr: svc.Addr, Cluster: "cloud"}, // served by the origin
					{Addr: netem.ParseHostPort("10.0.0.2:20000"), Cluster: "near"},
					{Addr: netem.ParseHostPort("10.0.0.2:20001"), Cluster: "near"},
					{Addr: netem.ParseHostPort("10.0.1.2:20000"), Cluster: "far"},
				}
				for _, client := range clients {
					for _, inst := range insts {
						specs = rig.ctrl.appendRedirectSpecs(specs, client, svc, inst)
					}
				}
			}
		}
		inst, err := rig.ctrl.PreDeploy(rig.svc.Addr, "near")
		if err != nil {
			t.Fatal(err)
		}
		rig.attach(clients[0], inst)
		specs = append(specs, rig.gnb1.FlowTable()...)
		rig.ctrl.Handover(clients[0], rig.gnb2, 3)
		specs = append(specs, rig.gnb2.FlowTable()...) // punt rules + the re-steered pair
	})
	return specs
}

// randomSpecs draws well-formed specs — each set-field at most once, in
// the constructors' order, then one terminal — from pools small enough
// that equal and nearly equal pairs are common.
func randomSpecs(rng *rand.Rand, n int) []openflow.FlowSpec {
	ips := []netem.IP{0, netem.ParseIP("10.0.0.2"), netem.ParseIP("192.168.1.10")}
	ports := []uint16{0, 80, 20000}
	specs := make([]openflow.FlowSpec, n)
	for i := range specs {
		spec := openflow.FlowSpec{
			Priority:    []int{puntPriority, redirectPriority}[rng.Intn(2)],
			Match:       openflow.Match{SrcIP: ips[rng.Intn(3)], DstPort: ports[rng.Intn(3)]},
			IdleTimeout: time.Duration(rng.Intn(3)) * time.Second, // not part of either identity
			Cookie:      uint64(rng.Intn(3)),
		}
		if rng.Intn(8) == 0 { // the rest of the match, now and then
			spec.Match.InPort, spec.Match.DstIP, spec.Match.SrcPort = rng.Intn(2), ips[rng.Intn(3)], ports[rng.Intn(3)]
		}
		if rng.Intn(3) == 0 {
			spec.Actions = append(spec.Actions, openflow.SetSrcIP{IP: ips[1+rng.Intn(2)]})
		}
		if rng.Intn(3) == 0 {
			spec.Actions = append(spec.Actions, openflow.SetSrcPort{Port: ports[1+rng.Intn(2)]})
		}
		if rng.Intn(3) == 0 {
			spec.Actions = append(spec.Actions, openflow.SetDstIP{IP: ips[1+rng.Intn(2)]})
		}
		if rng.Intn(3) == 0 {
			spec.Actions = append(spec.Actions, openflow.SetDstPort{Port: ports[1+rng.Intn(2)]})
		}
		spec.Actions = append(spec.Actions, []openflow.Action{
			openflow.Output{Port: 1}, openflow.Output{Port: 2},
			openflow.OutputNormal{}, openflow.OutputController{}, openflow.Drop{},
		}[rng.Intn(5)])
		specs[i] = spec
	}
	return specs
}

// TestFlowIDMatchesStringIdentity: two flows have the same FlowID exactly
// when the reconciler's former string identity was the same — on every
// spec the controller constructs as is, and on random well-formed specs
// once the string is given the action types its %v drops.
func TestFlowIDMatchesStringIdentity(t *testing.T) {
	check := func(name string, specs []openflow.FlowSpec, oracle func(openflow.FlowSpec) string) {
		ids, strs, plain := make([]openflow.FlowID, len(specs)), make([]string, len(specs)), make([]string, len(specs))
		for i, spec := range specs {
			ids[i], strs[i], plain[i] = spec.ID(), oracle(spec), flowIdent(spec)
		}
		equal, typeOnly := 0, 0
		for i := range specs {
			for j := i + 1; j < len(specs); j++ {
				sameID, sameStr := ids[i] == ids[j], strs[i] == strs[j]
				if sameID != sameStr {
					t.Fatalf("%s: FlowID equal = %v, string identity equal = %v for\n%+v\n%+v", name, sameID, sameStr, specs[i], specs[j])
				}
				if sameID {
					equal++
				} else if plain[i] == plain[j] {
					typeOnly++
				}
			}
		}
		t.Logf("%s: %d specs, %d equal pairs, %d pairs only the action types tell apart", name, len(specs), equal, typeOnly)
		if equal == 0 {
			t.Errorf("%s: no two specs were equal, the test compared nothing", name)
		}
	}
	check("constructors", constructorSpecs(t), flowIdent)
	check("random", randomSpecs(rand.New(rand.NewSource(1)), 600), func(spec openflow.FlowSpec) string {
		return flowIdent(spec) + "|" + actionTypes(spec)
	})
}

// flowIDFields is how many bytes decodeFlowIDPair reads per spec: one
// per field, in the order decodeFlowIDSpec lists them.
const flowIDFields = 14

// decodeFlowIDSpec builds a well-formed spec the way randomSpecs does —
// each set-field at most once, in the constructors' order, then one
// terminal — from one byte per field, each taken modulo a domain small
// enough that equal specs are common.
func decodeFlowIDSpec(b *[flowIDFields]byte) openflow.FlowSpec {
	ips := []netem.IP{0, netem.ParseIP("10.0.0.2"), netem.ParseIP("192.168.1.10")}
	ports := []uint16{0, 80, 20000}
	spec := openflow.FlowSpec{
		Priority: []int{puntPriority, redirectPriority}[b[0]%2],
		Match: openflow.Match{
			SrcIP: ips[b[1]%3], DstPort: ports[b[2]%3],
			InPort: int(b[3] % 2), DstIP: ips[b[4]%3], SrcPort: ports[b[5]%3],
		},
		// Not part of either identity.
		IdleTimeout: time.Duration(b[6]%3) * time.Second,
		HardTimeout: time.Duration(b[7]%3) * time.Second,
		Cookie:      uint64(b[8] % 3),
	}
	if i := b[9] % 3; i > 0 {
		spec.Actions = append(spec.Actions, openflow.SetSrcIP{IP: ips[i]})
	}
	if i := b[10] % 3; i > 0 {
		spec.Actions = append(spec.Actions, openflow.SetSrcPort{Port: ports[i]})
	}
	if i := b[11] % 3; i > 0 {
		spec.Actions = append(spec.Actions, openflow.SetDstIP{IP: ips[i]})
	}
	if i := b[12] % 3; i > 0 {
		spec.Actions = append(spec.Actions, openflow.SetDstPort{Port: ports[i]})
	}
	spec.Actions = append(spec.Actions, []openflow.Action{
		openflow.Output{Port: 1}, openflow.Output{Port: 2},
		openflow.OutputNormal{}, openflow.OutputController{}, openflow.Drop{},
	}[b[13]%5])
	return spec
}

// decodeFlowIDPair reads two specs from data. The first flowIDFields
// bytes are the first spec's fields; the next flowIDFields bytes are
// XORed onto them to give the second's. Missing bytes read as zero, so
// a short input decodes to two equal specs and each later byte changes
// one field of the second.
func decodeFlowIDPair(data []byte) (a, b openflow.FlowSpec) {
	var fa, fb [flowIDFields]byte
	copy(fa[:], data)
	fb = fa
	if len(data) > flowIDFields {
		for i, d := range data[flowIDFields:min(len(data), 2*flowIDFields)] {
			fb[i] ^= d
		}
	}
	return decodeFlowIDSpec(&fa), decodeFlowIDSpec(&fb)
}

// FuzzFlowID is openflow.FlowID's oracle: two well-formed specs have the
// same ID exactly when the reconciler's former string identity, given
// the action types its %v drops, is the same.
func FuzzFlowID(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := decodeFlowIDPair(data)
		sameID := a.ID() == b.ID()
		sameStr := flowIdent(a)+"|"+actionTypes(a) == flowIdent(b)+"|"+actionTypes(b)
		if sameID != sameStr {
			t.Fatalf("FlowID equal = %v, string identity equal = %v for\n%+v\n%+v", sameID, sameStr, a, b)
		}
	})
}

// TestDiffFlowsMatchesStringOracle: on random (actual, desired) tables
// built from the controller's own specs — with rules missing, stray
// rules, rules for the right match with another instance's actions, and
// duplicates on both sides — diffFlows returns the orphans and the
// missing rules the two-string-set diff returned, in the same order,
// and AuditDiff's count of distinct differences comes out the same.
func TestDiffFlowsMatchesStringOracle(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		rig := newAuditRig(t, clk, 0, nil)
		other := cluster.Instance{Addr: netem.ParseHostPort("10.0.9.2:20000"), Cluster: "far"}
		origin := cluster.Instance{Addr: rig.svc.Addr, Cluster: "cloud"}
		punt := rig.ctrl.desiredFlows(rig.sw, new(auditBuffers))
		pair := func(client int, inst cluster.Instance) []openflow.FlowSpec {
			return rig.ctrl.appendRedirectSpecs(nil, auditBase+netem.IP(client), rig.svc, inst)
		}
		rng := rand.New(rand.NewSource(1))
		want := map[openflow.FlowID]bool{} // one scratch map for all rounds, as the controller keeps one for all audits
		for round := 0; round < 200; round++ {
			var actual, desired []openflow.FlowSpec
			if rng.Intn(4) > 0 {
				desired = append(desired, punt...)
			}
			if rng.Intn(4) > 0 {
				actual = append(actual, punt...)
			}
			for client := 0; client < 1+rng.Intn(40); client++ {
				inst := []cluster.Instance{rig.inst, other, origin}[rng.Intn(3)]
				switch rng.Intn(8) {
				case 0: // missing
					desired = append(desired, pair(client, inst)...)
				case 1: // orphan
					actual = append(actual, pair(client, inst)...)
				case 2: // stale: the table still steers to another instance
					desired = append(desired, pair(client, rig.inst)...)
					actual = append(actual, pair(client, other)...)
				case 3: // duplicates on either side
					desired = append(desired, pair(client, inst)...)
					desired = append(desired, pair(client, inst)...)
					actual = append(actual, pair(client, inst)...)
					actual = append(actual, pair(client, inst)[0])
				case 4: // duplicate orphans, duplicate missing
					if rng.Intn(2) == 0 {
						actual = append(actual, pair(client, inst)...)
						actual = append(actual, pair(client, inst)...)
					} else {
						desired = append(desired, pair(client, inst)...)
						desired = append(desired, pair(client, inst)...)
					}
				default: // converged
					desired = append(desired, pair(client, inst)...)
					actual = append(actual, pair(client, inst)...)
				}
			}
			rng.Shuffle(len(actual), func(i, j int) { actual[i], actual[j] = actual[j], actual[i] })
			orphans, missing := diffFlows(actual, desired, want)
			wantOrphans, wantMissing := oracleDiff(actual, desired)
			if !reflect.DeepEqual(orphans, wantOrphans) || !reflect.DeepEqual(missing, wantMissing) {
				t.Fatalf("round %d: diffFlows = %d orphans, %d missing; string oracle %d, %d\ngot  %v %v\nwant %v %v",
					round, len(orphans), len(missing), len(wantOrphans), len(wantMissing), orphans, missing, wantOrphans, wantMissing)
			}
			distinct := map[string]struct{}{}
			for _, spec := range append(wantOrphans, wantMissing...) {
				distinct[flowIdent(spec)] = struct{}{}
			}
			if got := distinctFlows(orphans) + distinctFlows(missing); got != len(distinct) {
				t.Fatalf("round %d: %d distinct differences, string oracle %d", round, got, len(distinct))
			}
		}
	})
}

// TestOrphanOrderIsFlowTableOrder: the audit reads the table in install
// order and stable-sorts only its orphans with compareFlows; over random
// tables, with duplicates, deletes and the compaction they trigger, a
// stable sort of the whole install-order read is FlowTable's order, so
// the orphans go down in the order a sorted read gave them.
func TestOrphanOrderIsFlowTableOrder(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		rng := rand.New(rand.NewSource(1))
		for round := 0; round < 50; round++ {
			rig := newAuditRig(t, clk, 0, nil)
			specs := randomSpecs(rng, 1+rng.Intn(200))
			specs = append(specs, specs[:rng.Intn(len(specs))]...) // duplicates, installed later
			rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
			rig.sw.ApplyBundle(nil, specs)
			rig.sw.ApplyBundle(specs[:rng.Intn(len(specs))], specs[:rng.Intn(len(specs))])
			read, _, _ := rig.sw.AppendTableSince(nil, nil)
			slices.SortStableFunc(read, compareFlows)
			if want := rig.sw.FlowTable(); !reflect.DeepEqual(read, want) {
				t.Fatalf("round %d: install-order read, stable-sorted:\n%v\nFlowTable:\n%v", round, read, want)
			}
		}
	})
}

// TestAuditMatchesStringOracle runs one audit over a deliberately wrong
// table twice — through auditSwitch, and through the reconciler's former
// procedure (string sets, the DisableFlowMemory exemption, deletes then
// installs in one bundle) — with the FlowMemory on and off. Both must
// leave the same table, entry for entry, and count the same repairs.
func TestAuditMatchesStringOracle(t *testing.T) {
	audit := func(disableMemory, oracle bool) (table []openflow.FlowSpec, deleted, installed int64) {
		clk := vclock.New()
		clk.Run(func() {
			rig := newAuditRig(t, clk, 64, func(cfg *Config) { cfg.DisableFlowMemory = disableMemory })
			other := cluster.Instance{Addr: netem.ParseHostPort("10.0.9.2:20000"), Cluster: "far"}
			pair := func(client netem.IP, inst cluster.Instance) []openflow.FlowSpec {
				return rig.ctrl.appendRedirectSpecs(nil, client, rig.svc, inst)
			}
			var gone, extra []openflow.FlowSpec
			gone = append(gone, rig.ctrl.desiredFlows(rig.sw, new(auditBuffers))[0]) // the punt rule
			gone = append(gone, pair(rig.clients[3], rig.inst)...)
			gone = append(gone, pair(rig.clients[17], rig.inst)[1]) // half a pair
			ghost := auditBase + netem.IP(len(rig.clients))
			extra = append(extra, pair(ghost, rig.inst)...)
			extra = append(extra, pair(ghost, rig.inst)...)          // the same orphans twice
			extra = append(extra, pair(rig.clients[5], other)...)    // stale actions next to the right rule
			extra = append(extra, pair(rig.clients[9], rig.inst)...) // benign duplicate
			extra = append(extra, openflow.FlowSpec{                 // a punt rule for a service nobody registered
				Priority: puntPriority,
				Match:    openflow.Match{DstIP: netem.ParseIP("203.0.113.9"), DstPort: 80},
				Actions:  []openflow.Action{openflow.OutputController{}},
			})
			rig.sw.ApplyBundle(gone, extra)

			before := rig.ctrl.Stats()
			if !oracle {
				rig.ctrl.auditSwitch(rig.sw)
				after := rig.ctrl.Stats()
				deleted = after.OrphanFlowsRemoved - before.OrphanFlowsRemoved
				installed = after.ReinstalledFlows - before.ReinstalledFlows
			} else {
				actual := rig.sw.FlowTable()
				orphans, installs := oracleDiff(actual, rig.ctrl.desiredFlows(rig.sw, new(auditBuffers)))
				var deletes []openflow.FlowSpec
				for _, spec := range orphans {
					if disableMemory && spec.Priority != puntPriority {
						continue
					}
					deletes = append(deletes, spec)
				}
				deleted = int64(rig.sw.ApplyBundle(deletes, installs))
				installed = int64(len(installs))
			}
			table = rig.sw.FlowTable()
		})
		return table, deleted, installed
	}
	for _, disableMemory := range []bool{false, true} {
		table, deleted, installed := audit(disableMemory, false)
		wantTable, wantDeleted, wantInstalled := audit(disableMemory, true)
		if deleted != wantDeleted || installed != wantInstalled {
			t.Errorf("DisableFlowMemory=%v: audit deleted %d and installed %d flows, string oracle %d and %d",
				disableMemory, deleted, installed, wantDeleted, wantInstalled)
		}
		if !reflect.DeepEqual(table, wantTable) {
			t.Errorf("DisableFlowMemory=%v: tables differ after the audit:\n got %v\nwant %v", disableMemory, table, wantTable)
		}
		if deleted == 0 || installed == 0 {
			t.Errorf("DisableFlowMemory=%v: audit deleted %d and installed %d flows, the table was not wrong enough", disableMemory, deleted, installed)
		}
	}
}

// TestOverlappingAuditsShareNoBuffers: an audit parks in its flow-stats
// read, so audits overlap across that park, each in the buffers it took
// from the controller or in fresh ones. Eight audits at a time over a
// table with known differences must each see exactly those. Go starts
// the eight in parallel until they park, so under -race at several Ps
// they take the kept buffers at the same moment: a hand-off that is not
// one atomic Swap shows as a race report.
func TestOverlappingAuditsShareNoBuffers(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		rig := newAuditRig(t, clk, 512, nil)
		missing, orphans := rig.diverge(0)
		var audits vclock.Group
		for i := 0; i < 8; i++ {
			audits.Go(clk, func() {
				for round := 0; round < 20; round++ {
					if d := rig.ctrl.AuditDiff(rig.sw); d != missing+orphans {
						t.Errorf("overlapping audit saw %d differences, the table has %d", d, missing+orphans)
					}
				}
			})
		}
		audits.Wait(clk)
		rig.ctrl.ResyncNow()
		if d := rig.ctrl.AuditDiff(rig.sw); d != 0 {
			t.Errorf("%d differences left after the repair", d)
		}
	})
}

// TestAuditAllocations pins what an audit costs in allocations. An
// audit of a converged table allocates nothing: the desired specs share
// their action lists, and the snapshot, the identity and the diff work
// in the buffers the controller keeps from the audit before. Each
// converged round bumps the table version first (touch), or
// the audit would skip the diff. An audit of an untouched table after a
// clean one does skip it, and allocates nothing either. An audit of a
// table 1 % wrong, which also builds and applies the repair bundle, is
// held to its measured 33.5 allocations, + 10 %.
func TestAuditAllocations(t *testing.T) {
	const (
		flows            = 4096
		divergentCeiling = 36.9
		divergentRounds  = 10
		convergedRounds  = 10
	)
	clk := vclock.New()
	clk.Run(func() {
		rig := newAuditRig(t, clk, flows, nil)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as AllocsPerRun does
		var m0, m1 runtime.MemStats
		// audits runs rounds audits, touching the table before each when
		// touch is set, and reports how many times they allocated.
		audits := func(rounds int, touch bool) uint64 {
			before := rig.ctrl.Stats()
			runtime.ReadMemStats(&m0)
			for i := 0; i < rounds; i++ {
				if touch {
					rig.touch()
				}
				rig.ctrl.auditSwitch(rig.sw)
			}
			runtime.ReadMemStats(&m1)
			after := rig.ctrl.Stats()
			if after.ResyncRuns-before.ResyncRuns != int64(rounds) || after.ReinstalledFlows != before.ReinstalledFlows || after.OrphanFlowsRemoved != before.OrphanFlowsRemoved {
				t.Errorf("%d audits of a converged table (touched: %v) repaired something: %+v → %+v", rounds, touch, before, after)
			}
			return m1.Mallocs - m0.Mallocs
		}

		audits(1, true) // the first audit fills the buffers
		for _, touch := range []bool{true, false} {
			got := audits(convergedRounds, touch)
			t.Logf("%d allocs in %d audits of a converged table of %d flows (touched: %v)", got, convergedRounds, flows, touch)
			if got != 0 && !raceEnabled {
				t.Errorf("%d audits of a converged table of %d flows (touched: %v) allocated %d times, want 0", convergedRounds, flows, touch, got)
			}
		}

		var mallocs uint64
		for i := 0; i < divergentRounds; i++ {
			missing, orphans := rig.diverge(i)
			before := rig.ctrl.Stats()
			runtime.ReadMemStats(&m0)
			rig.ctrl.auditSwitch(rig.sw)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			after := rig.ctrl.Stats()
			if got := int(after.OrphanFlowsRemoved - before.OrphanFlowsRemoved + after.ReinstalledFlows - before.ReinstalledFlows); got != missing+orphans {
				t.Errorf("audit repaired %d flows, %d were wrong", got, missing+orphans)
			}
		}
		perAudit := float64(mallocs) / divergentRounds
		t.Logf("%.1f allocs per audit of %d flows 1 %% wrong (%.4f per flow)", perAudit, flows, perAudit/flows)
		if perAudit > divergentCeiling && !raceEnabled {
			t.Errorf("%.1f allocs per audit of %d flows 1 %% wrong, ceiling %.1f", perAudit, flows, divergentCeiling)
		}
	})
}

// TestRestartedResyncsOnceStarted: a started controller answers a
// switch restart — Handler.Restarted, one channel latency after the
// wipe — with one full resync that rebuilds the table; an unstarted
// controller leaves the switch to the calls its owner makes.
func TestRestartedResyncsOnceStarted(t *testing.T) {
	for _, start := range []bool{false, true} {
		t.Run(fmt.Sprintf("started=%v", start), func(t *testing.T) {
			clk := vclock.New()
			clk.Run(func() {
				near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}}
				rig := newHandoverRig(t, clk, start, nil, near)
				inst, err := rig.ctrl.PreDeploy(rig.svc.Addr, "near")
				if err != nil {
					t.Fatal(err)
				}
				rig.attach(netem.ParseIP("192.168.1.10"), inst)
				wantFlows, wantRuns := len(rig.gnb1.Flows()), int64(1)
				if !start {
					wantFlows, wantRuns = 0, 0
				}
				runs := rig.ctrl.Stats().ResyncRuns

				rig.gnb1.Restart()
				clk.Sleep(100 * time.Millisecond)
				if got := len(rig.gnb1.Flows()); got != wantFlows {
					t.Errorf("%d flows after the restart, want %d", got, wantFlows)
				}
				if got := rig.ctrl.Stats().ResyncRuns - runs; got != wantRuns {
					t.Errorf("%d resyncs after one restart, want %d", got, wantRuns)
				}
			})
		})
	}
}
