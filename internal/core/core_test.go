package core

import (
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

func TestFlowMemoryLookupAndExpiry(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		fm := NewFlowMemory(clk, 5*time.Second)
		client := netem.ParseIP("192.168.1.10")
		svc := netem.ParseHostPort("203.0.113.1:80")
		inst := cluster.Instance{Addr: netem.ParseHostPort("10.0.0.2:20000"), Cluster: "edge-docker"}

		if _, ok := fm.Lookup(client, svc); ok {
			t.Error("lookup hit on empty memory")
		}
		fm.Remember(client, svc, "edge-1", inst)
		got, ok := fm.Lookup(client, svc)
		if !ok || got != inst {
			t.Fatalf("Lookup = %+v, %v", got, ok)
		}
		if fm.Len() != 1 || fm.ServiceFlows("edge-1") != 1 {
			t.Errorf("Len=%d ServiceFlows=%d", fm.Len(), fm.ServiceFlows("edge-1"))
		}
		// Touch keeps it alive past the idle timeout.
		for i := 0; i < 3; i++ {
			clk.Sleep(4 * time.Second)
			fm.Touch(client, svc)
		}
		if _, ok := fm.Lookup(client, svc); !ok {
			t.Error("touched entry expired")
		}
		// Silence expires it.
		clk.Sleep(6 * time.Second)
		if _, ok := fm.Lookup(client, svc); ok {
			t.Error("idle entry survived")
		}
	})
}

func TestFlowMemoryServiceIdleHook(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		fm := NewFlowMemory(clk, 2*time.Second)
		var idled []string
		fm.OnServiceIdle = func(s string) { idled = append(idled, s) }
		svc := netem.ParseHostPort("203.0.113.1:80")
		inst := cluster.Instance{Addr: netem.ParseHostPort("10.0.0.2:20000")}
		fm.Remember(netem.ParseIP("192.168.1.10"), svc, "edge-1", inst)
		fm.Remember(netem.ParseIP("192.168.1.11"), svc, "edge-1", inst)
		clk.Sleep(5 * time.Second)
		// Both entries expired; the hook fires exactly once, when the
		// last one goes.
		if len(idled) != 1 || idled[0] != "edge-1" {
			t.Errorf("idle hook calls = %v, want exactly one for edge-1", idled)
		}
	})
}

func TestFlowMemoryForget(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		fm := NewFlowMemory(clk, time.Minute)
		svc := netem.ParseHostPort("203.0.113.1:80")
		near := cluster.Instance{Addr: netem.ParseHostPort("10.0.0.2:20000"), Cluster: "near"}
		far := cluster.Instance{Addr: netem.ParseHostPort("10.0.1.2:20000"), Cluster: "far"}
		c1, c2 := netem.ParseIP("192.168.1.10"), netem.ParseIP("192.168.1.11")
		fm.Remember(c1, svc, "edge-1", far)
		fm.Remember(c2, svc, "edge-1", near)
		// Switch future requests over to the near instance: drop every
		// mapping not already pointing there.
		fm.ForgetService("edge-1", near)
		if _, ok := fm.Lookup(c1, svc); ok {
			t.Error("stale mapping to far instance survived")
		}
		if got, ok := fm.Lookup(c2, svc); !ok || got != near {
			t.Error("mapping to the kept instance dropped")
		}
		fm.Forget(c2, svc)
		if fm.Len() != 0 {
			t.Errorf("Len = %d after Forget", fm.Len())
		}
	})
}

func TestFlowMemoryRememberReplaces(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		fm := NewFlowMemory(clk, time.Minute)
		svc := netem.ParseHostPort("203.0.113.1:80")
		client := netem.ParseIP("192.168.1.10")
		a := cluster.Instance{Addr: netem.ParseHostPort("10.0.0.2:1"), Cluster: "a"}
		b := cluster.Instance{Addr: netem.ParseHostPort("10.0.0.2:2"), Cluster: "b"}
		fm.Remember(client, svc, "edge-1", a)
		fm.Remember(client, svc, "edge-1", b)
		if got, _ := fm.Lookup(client, svc); got != b {
			t.Errorf("Lookup = %+v, want replacement", got)
		}
		if fm.Len() != 1 {
			t.Errorf("Len = %d, want 1", fm.Len())
		}
	})
}

func TestFlowMemoryRememberRetags(t *testing.T) {
	// Re-remembering an existing flow under a different service name
	// must re-tag the entry: the per-service counts driving idle
	// scale-down follow the rename instead of drifting (the old name
	// keeping a phantom count, the new name missing one).
	clk := vclock.New()
	clk.Run(func() {
		fm := NewFlowMemory(clk, 2*time.Second)
		var idled []string
		fm.OnServiceIdle = func(s string) { idled = append(idled, s) }
		svc := netem.ParseHostPort("203.0.113.1:80")
		client := netem.ParseIP("192.168.1.10")
		a := cluster.Instance{Addr: netem.ParseHostPort("10.0.0.2:1"), Cluster: "a"}
		b := cluster.Instance{Addr: netem.ParseHostPort("10.0.0.2:2"), Cluster: "b"}
		fm.Remember(client, svc, "edge-old", a)
		fm.Remember(client, svc, "edge-new", b)
		if n := fm.ServiceFlows("edge-old"); n != 0 {
			t.Errorf("ServiceFlows(edge-old) = %d, want 0 after re-tag", n)
		}
		if n := fm.ServiceFlows("edge-new"); n != 1 {
			t.Errorf("ServiceFlows(edge-new) = %d, want 1 after re-tag", n)
		}
		if fm.Len() != 1 {
			t.Errorf("Len = %d, want 1", fm.Len())
		}
		// Dropping the old name's count by re-tagging is not an idle
		// expiry: the scale-down hook stays silent, like explicit Forget.
		if len(idled) != 0 {
			t.Errorf("idle hooks %v fired on re-tag", idled)
		}
		// Idle expiry reports the current (new) name.
		clk.Sleep(5 * time.Second)
		if len(idled) != 1 || idled[0] != "edge-new" {
			t.Errorf("idle hooks after expiry = %v, want [edge-new]", idled)
		}
	})
}

// fakeCluster is a minimal Cluster for scheduler unit tests.
type fakeCluster struct {
	cluster.StaticCluster
	name string
	loc  cluster.Location
	inst []cluster.Instance
}

func (f *fakeCluster) Name() string                        { return f.name }
func (f *fakeCluster) Location() cluster.Location          { return f.loc }
func (f *fakeCluster) Instances(string) []cluster.Instance { return f.inst }

func fake(name string, latency time.Duration, insts ...cluster.Instance) *fakeCluster {
	return &fakeCluster{name: name, loc: cluster.Location{Latency: latency}, inst: insts}
}

func candidates(cls ...*fakeCluster) []Candidate {
	out := make([]Candidate, len(cls))
	for i, c := range cls {
		out[i] = Candidate{Cluster: c, Latency: c.loc.Latency, Instances: c.inst, CanHost: true}
	}
	return out
}

// cloudCandidate models the always-running origin: instances but not
// deployable.
func cloudCandidate(insts ...cluster.Instance) Candidate {
	return Candidate{
		Cluster:   fake("cloud", 25*time.Millisecond, insts...),
		Latency:   25 * time.Millisecond,
		Instances: insts,
		CanHost:   false,
	}
}

func instanceAt(addr string, cl string) cluster.Instance {
	return cluster.Instance{Addr: netem.ParseHostPort(addr), Cluster: cl}
}

// TestRememberFromChunks: the memory entries of new keys come from
// chunks, so remembering n new keys costs at most n/32 allocations on
// top of what the same n inserts cost a map of the memory's key type.
func TestRememberFromChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not apply under -race")
	}
	const n = 4096
	svc := netem.ParseHostPort("203.0.113.1:80")
	inst := cluster.Instance{Addr: netem.ParseHostPort("10.0.0.2:20000"), Cluster: "edge-docker"}
	clk := vclock.New()
	clk.Run(func() {
		ref := make(map[flowKey]*memEntry)
		refNext := 0
		growth := testing.AllocsPerRun(1, func() {
			for i := 0; i < n; i++ {
				ref[flowKey{client: netem.IP(refNext), service: svc}] = nil
				refNext++
			}
		})
		fm := NewFlowMemory(clk, time.Hour)
		next := 0
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < n; i++ {
				fm.Remember(netem.IP(next), svc, "svc", inst)
				next++
			}
		})
		t.Logf("%v allocs for %d new keys, %v of them the map's", allocs, n, growth)
		if allocs > n/32+growth {
			t.Errorf("remembering %d new keys: %v allocs, ceiling %v", n, allocs, n/32+growth)
		}
	})
}

func TestProximitySchedulerWaits(t *testing.T) {
	s := &ProximityScheduler{Config: SchedulerConfig{Wait: WaitAlways}}
	near := fake("near", time.Millisecond)
	far := fake("far", 10*time.Millisecond)
	d := s.Schedule(&Service{Name: "svc"}, 0, candidates(far, near))
	if d.Fast != near || d.FastInstance != nil || d.Best != nil {
		t.Errorf("decision = %+v, want wait at the nearest edge", d)
	}
}

func TestProximitySchedulerIgnoresCloudInstances(t *testing.T) {
	// The cloud origin always has a running instance; it must never be
	// the FAST choice while a deployable edge exists.
	s := &ProximityScheduler{Config: SchedulerConfig{Wait: WaitAlways}}
	near := fake("near", time.Millisecond)
	cands := append(candidates(near), cloudCandidate(instanceAt("203.0.113.1:80", "cloud")))
	d := s.Schedule(&Service{Name: "svc"}, 0, cands)
	if d.Fast != near || d.FastInstance != nil {
		t.Errorf("decision = %+v, want wait at the edge, not cloud", d)
	}
}

func TestProximitySchedulerSkipsNonHostingClusters(t *testing.T) {
	// A nearer cluster that cannot host the service (e.g. a serverless
	// runtime offered a container service) is skipped for BEST.
	s := &ProximityScheduler{Config: SchedulerConfig{Wait: WaitAlways}}
	wasm := fake("wasm", 900*time.Microsecond)
	docker := fake("docker", time.Millisecond)
	cands := []Candidate{
		{Cluster: wasm, CanHost: false},
		{Cluster: docker, CanHost: true},
	}
	d := s.Schedule(&Service{Name: "svc"}, 0, cands)
	if d.Fast != docker {
		t.Errorf("decision = %+v, want the hosting cluster", d)
	}
}

func TestProximitySchedulerUsesRunningInstance(t *testing.T) {
	s := &ProximityScheduler{Config: SchedulerConfig{Wait: WaitAlways}}
	inst := instanceAt("10.0.0.2:20000", "near")
	near := fake("near", time.Millisecond, inst)
	far := fake("far", 10*time.Millisecond)
	d := s.Schedule(&Service{Name: "svc"}, 0, candidates(near, far))
	if d.Fast != near || d.FastInstance == nil || *d.FastInstance != inst || d.Best != nil {
		t.Errorf("decision = %+v, want immediate redirect, nothing to deploy", d)
	}
}

func TestProximitySchedulerNoWaitViaFartherInstance(t *testing.T) {
	s := &ProximityScheduler{Config: SchedulerConfig{Wait: WaitAlways}}
	farInst := instanceAt("10.0.1.2:20000", "far")
	near := fake("near", time.Millisecond)
	far := fake("far", 10*time.Millisecond, farInst)
	d := s.Schedule(&Service{Name: "svc"}, 0, candidates(near, far))
	if d.Fast != far || d.FastInstance == nil || d.Best != near {
		t.Errorf("decision = %+v, want FAST=far instance, BEST=near deploy", d)
	}
}

// TestProximitySchedulerTieGoesToFirst: of two hosting candidates at
// equal latency, the first in input order is the optimal edge, and the
// first one's instance serves when both run one.
func TestProximitySchedulerTieGoesToFirst(t *testing.T) {
	s := &ProximityScheduler{Config: SchedulerConfig{Wait: WaitAlways}}
	a, b := fake("a", time.Millisecond), fake("b", time.Millisecond)
	if d := s.Schedule(&Service{Name: "svc"}, 0, candidates(b, a)); d.Fast != b || d.Best != nil {
		t.Errorf("decision = %+v, want wait at b, the first of equals", d)
	}
	instA, instB := instanceAt("10.0.0.2:20000", "a"), instanceAt("10.0.1.2:20000", "b")
	a.inst, b.inst = []cluster.Instance{instA}, []cluster.Instance{instB}
	d := s.Schedule(&Service{Name: "svc"}, 0, candidates(a, b))
	if d.Fast != a || d.FastInstance == nil || *d.FastInstance != instA || d.Best != nil {
		t.Errorf("decision = %+v, want a's instance, nothing to deploy", d)
	}
}

func TestProximitySchedulerNeverWaitFallsBackToCloud(t *testing.T) {
	s := &ProximityScheduler{Config: SchedulerConfig{Wait: WaitNever}}
	near := fake("near", time.Millisecond)
	d := s.Schedule(&Service{Name: "svc"}, 0, candidates(near))
	if d.Fast != nil || d.Best != near {
		t.Errorf("decision = %+v, want cloud + background deploy", d)
	}
}

func TestProximitySchedulerBoundedWait(t *testing.T) {
	near := fake("near", time.Millisecond)
	mk := func(est time.Duration) Decision {
		s := &ProximityScheduler{Config: SchedulerConfig{
			Wait:    WaitBounded,
			MaxWait: time.Second,
			EstimateDeploy: func(*Service, cluster.Cluster) time.Duration {
				return est
			},
		}}
		return s.Schedule(&Service{Name: "svc"}, 0, candidates(near))
	}
	if d := mk(500 * time.Millisecond); d.Fast != near {
		t.Errorf("fast deploy not awaited: %+v", d)
	}
	if d := mk(5 * time.Second); d.Fast != nil || d.Best != near {
		t.Errorf("slow deploy awaited: %+v", d)
	}
}

func TestCloudOnlyScheduler(t *testing.T) {
	s := CloudOnlyScheduler{}
	near := fake("near", time.Millisecond, instanceAt("10.0.0.2:1", "near"))
	d := s.Schedule(&Service{Name: "svc"}, 0, candidates(near))
	if d.Fast != nil || d.Best != nil || d.FastInstance != nil {
		t.Errorf("cloud-only decision = %+v", d)
	}
}

func TestSchedulerRegistry(t *testing.T) {
	names := SchedulerNames()
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	if !found[SchedulerProximity] || !found[SchedulerCloudOnly] {
		t.Errorf("registered schedulers = %v", names)
	}
	if _, err := LoadScheduler("no-such", SchedulerConfig{}); err == nil {
		t.Error("unknown scheduler loaded")
	}
	s, err := LoadScheduler(SchedulerProximity, SchedulerConfig{})
	if err != nil || s == nil {
		t.Errorf("LoadScheduler: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate registration did not panic")
			}
		}()
		RegisterScheduler(SchedulerProximity, nil)
	}()
}
