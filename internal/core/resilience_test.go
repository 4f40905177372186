package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/openflow"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// stubCluster is a controllable edge cluster for resilience tests: a
// configurable number of upcoming Pull/Create/ScaleUp calls fail, pulls
// can be slowed down, and ScaleUp opens a real listener on the stub's
// host so the controller's port probing works end to end.
type stubCluster struct {
	clk  *vclock.Virtual
	name string
	loc  cluster.Location
	host *netem.Host
	port uint16

	mu          sync.Mutex
	failPulls   int
	failCreates int
	failScales  int
	pullDelay   time.Duration
	neverReady  bool // ScaleUp succeeds but no port ever opens
	pullCalls   int
	createCalls int
	scaleCalls  int
	pulled      bool
	created     bool
	listener    *netem.Listener
	insts       []cluster.Instance
}

func (s *stubCluster) Name() string                    { return s.name }
func (s *stubCluster) Kind() cluster.Kind              { return cluster.Docker }
func (s *stubCluster) Location() cluster.Location      { return s.loc }
func (s *stubCluster) CanHost(cluster.Spec) bool       { return true }
func (s *stubCluster) DeleteImages(cluster.Spec) error { return nil }

func (s *stubCluster) HasImages(cluster.Spec) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pulled
}

func (s *stubCluster) Pull(cluster.Spec) error {
	s.mu.Lock()
	delay := s.pullDelay
	s.mu.Unlock()
	if delay > 0 {
		s.clk.Sleep(delay)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pullCalls++
	if s.failPulls > 0 {
		s.failPulls--
		return fmt.Errorf("stub %s: pull failed", s.name)
	}
	s.pulled = true
	return nil
}

func (s *stubCluster) Created(string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.created
}

func (s *stubCluster) Create(cluster.Spec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.createCalls++
	if s.failCreates > 0 {
		s.failCreates--
		return fmt.Errorf("stub %s: create failed", s.name)
	}
	s.created = true
	return nil
}

func (s *stubCluster) ScaleUp(string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scaleCalls++
	if s.failScales > 0 {
		s.failScales--
		return fmt.Errorf("stub %s: scale-up failed", s.name)
	}
	if s.neverReady {
		return nil
	}
	if s.listener == nil {
		ln, err := s.host.Listen(s.port)
		if err != nil {
			return err
		}
		s.listener = ln
	}
	s.insts = []cluster.Instance{{Addr: s.host.Addr(s.port), Cluster: s.name}}
	return nil
}

func (s *stubCluster) ScaleDown(string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopLocked()
	return nil
}

func (s *stubCluster) Remove(string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopLocked()
	s.created = false
	return nil
}

func (s *stubCluster) stopLocked() {
	if s.listener != nil {
		s.listener.Close()
		s.listener = nil
	}
	s.insts = nil
}

// kill simulates the instance dying behind the controller's back
// (container crash / external scale-down).
func (s *stubCluster) kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopLocked()
}

func (s *stubCluster) Instances(string) []cluster.Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]cluster.Instance(nil), s.insts...)
}

func (s *stubCluster) calls() (pulls, creates, scales int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pullCalls, s.createCalls, s.scaleCalls
}

// resilienceRig wires stub clusters, a switch, and a controller into a
// minimal emulated network where port probing is real.
type resilienceRig struct {
	net  *netem.Network
	ctrl *Controller
	sw   *openflow.Switch // its last port is left unconnected
	svc  *Service
}

func newResilienceRig(t testing.TB, clk *vclock.Virtual, mut func(*Config), stubs ...*stubCluster) *resilienceRig {
	t.Helper()
	n := netem.NewNetwork(clk, 1)
	sw := openflow.NewSwitch(n, "ovs", len(stubs)+2)
	for i, st := range stubs {
		host := n.NewHost(st.name, netem.ParseIP(fmt.Sprintf("10.0.%d.2", i)))
		n.Connect(host.NIC(), sw.Port(i+1), netem.LinkConfig{Latency: 200 * time.Microsecond})
		sw.AddRoute(host.IP(), i+1)
		st.clk = clk
		st.host = host
		st.port = 20000
	}
	ctrlHost := n.NewHost("ctrl", netem.ParseIP("10.0.254.1"))
	ctrlPort := len(stubs) + 1
	n.Connect(ctrlHost.NIC(), sw.Port(ctrlPort), netem.LinkConfig{Latency: 200 * time.Microsecond})
	sw.AddRoute(ctrlHost.IP(), ctrlPort)

	clusters := make([]cluster.Cluster, len(stubs))
	for i, st := range stubs {
		clusters[i] = st
	}
	cfg := Config{
		Host:          ctrlHost,
		Switch:        sw,
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
	ctrl.Start()
	svcAddr := netem.ParseHostPort("203.0.113.1:80")
	svc, err := ctrl.RegisterService(svcAddr, leanNginx)
	if err != nil {
		t.Fatal(err)
	}
	return &resilienceRig{net: n, ctrl: ctrl, sw: sw, svc: svc}
}

func TestRetryRecoversTransientFailures(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond},
			failPulls: 1, failScales: 1}
		rig := newResilienceRig(t, clk, nil, near)
		inst, err := rig.ctrl.PreDeploy(rig.svc.Addr, "near")
		if err != nil {
			t.Fatalf("deploy did not recover: %v", err)
		}
		if inst.Cluster != "near" {
			t.Errorf("instance on %s, want near", inst.Cluster)
		}
		pulls, _, scales := near.calls()
		if pulls != 2 || scales != 2 {
			t.Errorf("pulls=%d scales=%d, want 2 each (one failure + one retry)", pulls, scales)
		}
		if s := rig.ctrl.Stats(); s.Retries != 2 || s.DeployFailures != 0 {
			t.Errorf("Stats = %+v, want Retries=2", s)
		}
	})
}

func TestRetryGivesUpAfterMax(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond},
			failPulls: 100}
		rig := newResilienceRig(t, clk, nil, near)
		if _, err := rig.ctrl.PreDeploy(rig.svc.Addr, "near"); err == nil {
			t.Fatal("deploy succeeded against a permanently failing pull")
		}
		pulls, _, _ := near.calls()
		if pulls != 3 { // initial attempt + RetryMax(2) retries
			t.Errorf("pulls = %d, want 3", pulls)
		}
		if s := rig.ctrl.Stats(); s.Retries != 2 {
			t.Errorf("Retries = %d, want 2", s.Retries)
		}
	})
}

func TestFailoverToNextBestCluster(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond},
			failPulls: 100}
		far := &stubCluster{name: "far", loc: cluster.Location{Latency: 8 * time.Millisecond}}
		rig := newResilienceRig(t, clk, func(cfg *Config) {
			cfg.RetryMax = -1 // isolate failover from retry
		}, near, far)
		inst, ok := rig.ctrl.dispatchWait(rig.sw, rig.svc, netem.ParseIP("192.168.1.10"))
		if !ok {
			t.Fatal("dispatch fell through to the cloud despite a healthy fallback")
		}
		if inst.Cluster != "far" {
			t.Errorf("served from %s, want failover to far", inst.Cluster)
		}
		s := rig.ctrl.Stats()
		if s.Failovers != 1 || s.DeployFailures != 1 {
			t.Errorf("Stats = %+v, want Failovers=1 DeployFailures=1", s)
		}
	})
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond},
			failPulls: 2}
		rig := newResilienceRig(t, clk, func(cfg *Config) {
			cfg.RetryMax = -1
			cfg.BreakerThreshold = 2
			cfg.BreakerCooldown = 30 * time.Second
		}, near)
		client := netem.ParseIP("192.168.1.10")

		// Two consecutive failures trip the breaker.
		for i := 0; i < 2; i++ {
			if _, ok := rig.ctrl.dispatchWait(rig.sw, rig.svc, client); ok {
				t.Fatalf("dispatch %d succeeded, want failure", i)
			}
		}
		if s := rig.ctrl.Stats(); s.BreakerTrips != 1 {
			t.Fatalf("BreakerTrips = %d, want 1", s.BreakerTrips)
		}
		// While open, the cluster is not even a candidate: the request
		// forwards to the cloud without touching the cluster.
		pullsBefore, _, _ := near.calls()
		inst, ok := rig.ctrl.dispatchWait(rig.sw, rig.svc, client)
		if !ok || inst.Cluster != "origin" {
			t.Fatalf("dispatch during open breaker = %+v, %v; want cloud forward", inst, ok)
		}
		if pulls, _, _ := near.calls(); pulls != pullsBefore {
			t.Error("open breaker still sent traffic to the cluster")
		}
		// After the cooldown the half-open probe succeeds (failures are
		// exhausted) and closes the breaker.
		clk.Sleep(31 * time.Second)
		inst, ok = rig.ctrl.dispatchWait(rig.sw, rig.svc, client)
		if !ok || inst.Cluster != "near" {
			t.Fatalf("post-cooldown dispatch = %+v, %v; want near", inst, ok)
		}
		if s := rig.ctrl.Stats(); s.BreakerRecoveries != 1 {
			t.Errorf("BreakerRecoveries = %d, want 1", s.BreakerRecoveries)
		}
	})
}

func TestDeployTimeoutCoversAllPhases(t *testing.T) {
	// Regression: DeployTimeout "bounds one on-demand deployment end to
	// end", so a slow pull must eat into the readiness-wait budget
	// instead of resetting it.
	clk := vclock.New()
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond},
			pullDelay: 30 * time.Second, neverReady: true}
		rig := newResilienceRig(t, clk, func(cfg *Config) {
			cfg.DeployTimeout = 20 * time.Second
		}, near)
		start := clk.Now()
		_, err := rig.ctrl.PreDeploy(rig.svc.Addr, "near")
		if err == nil {
			t.Fatal("deploy succeeded without a ready instance")
		}
		if !strings.Contains(err.Error(), "not ready within") {
			t.Fatalf("unexpected error: %v", err)
		}
		// The 30 s pull already exceeded the 20 s budget: waitReady must
		// notice immediately instead of waiting its own fresh 20 s.
		if elapsed := clk.Since(start); elapsed > 31*time.Second {
			t.Errorf("deployment held the request for %v; deadline did not cover the pull phase", elapsed)
		}
	})
}

func TestHealthProberEvictsDeadInstance(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}}
		rig := newResilienceRig(t, clk, func(cfg *Config) {
			cfg.HealthProbeInterval = 5 * time.Second
			cfg.MemoryIdle = time.Hour
		}, near)
		client := netem.ParseIP("192.168.1.10")
		inst, ok := rig.ctrl.dispatchWait(rig.sw, rig.svc, client)
		if !ok || inst.Cluster != "near" {
			t.Fatalf("dispatch = %+v, %v", inst, ok)
		}
		rig.ctrl.FlowMemory().Remember(client, rig.svc.Addr, rig.svc.Name, inst)

		// Healthy instance: several prober rounds change nothing.
		clk.Sleep(12 * time.Second)
		if s := rig.ctrl.Stats(); s.HealthEvictions != 0 {
			t.Fatalf("healthy instance evicted: %+v", s)
		}

		near.kill()
		clk.Sleep(6 * time.Second)
		if s := rig.ctrl.Stats(); s.HealthEvictions != 1 {
			t.Fatalf("HealthEvictions = %d, want 1", s.HealthEvictions)
		}
		if rig.ctrl.FlowMemory().Len() != 0 {
			t.Error("dead instance still memorized")
		}
		// The deployment record is gone too: the next dispatch redeploys
		// instead of blackholing into the stale cached instance.
		_, _, scalesBefore := near.calls()
		inst, ok = rig.ctrl.dispatchWait(rig.sw, rig.svc, client)
		if !ok || inst.Cluster != "near" {
			t.Fatalf("redeploy dispatch = %+v, %v", inst, ok)
		}
		if _, _, scales := near.calls(); scales != scalesBefore+1 {
			t.Errorf("scale-ups %d → %d, want a fresh deployment", scalesBefore, scales)
		}
	})
}

func TestScaleDownFailureKeepsDeployment(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		near := &failingScaleDown{}
		near.stubCluster = stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}}
		rig := newResilienceRig(t, clk, func(cfg *Config) {
			cfg.ScaleDownIdle = true
			cfg.MemoryIdle = 5 * time.Second
		}, &near.stubCluster)
		// Swap the failing wrapper in as the cluster (same underlying stub).
		rig.ctrl.cfg.Clusters = []cluster.Cluster{near}

		client := netem.ParseIP("192.168.1.10")
		inst, ok := rig.ctrl.dispatchWait(rig.sw, rig.svc, client)
		if !ok {
			t.Fatal("dispatch failed")
		}
		rig.ctrl.FlowMemory().Remember(client, rig.svc.Addr, rig.svc.Name, inst)
		clk.Sleep(10 * time.Second) // idle expiry fires onServiceIdle

		s := rig.ctrl.Stats()
		if s.ScaleDownFailures != 1 || s.ScaleDowns != 0 {
			t.Fatalf("Stats = %+v, want one counted scale-down failure", s)
		}
		// The record survives and is no longer marked scaled down, so
		// controller state matches the still-running instance.
		rig.ctrl.mu.Lock()
		st, exists := rig.ctrl.deployments[deployKey{service: rig.svc.Name, cluster: "near"}]
		rig.ctrl.mu.Unlock()
		if !exists {
			t.Fatal("deployment record dropped despite failed scale-down")
		}
		if st.scaledDown {
			t.Error("deployment still marked scaled down after failure")
		}
	})
}

// failingScaleDown rejects every scale-down request.
type failingScaleDown struct {
	stubCluster
}

func (f *failingScaleDown) ScaleDown(string) error {
	return fmt.Errorf("stub: scale-down rejected")
}

func TestHandleFlowRemovedRefreshesBothRuleDirections(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}}
		rig := newResilienceRig(t, clk, func(cfg *Config) {
			cfg.MemoryIdle = 10 * time.Second
		}, near)
		client := netem.ParseIP("192.168.1.10")
		inst := cluster.Instance{Addr: netem.ParseHostPort("10.0.0.2:20000"), Cluster: "near"}
		fm := rig.ctrl.FlowMemory()
		fm.Remember(client, rig.svc.Addr, rig.svc.Name, inst)

		// Reverse rule: the instance's flow back to the client expired.
		// The client is in Match.DstIP, not SrcIP.
		clk.Sleep(6 * time.Second)
		rig.ctrl.FlowRemoved(nil, openflow.FlowRemoved{
			Match: openflow.Match{
				SrcIP:   inst.Addr.IP,
				SrcPort: inst.Addr.Port,
				DstIP:   client,
			},
			Cookie:      rig.svc.cookie,
			IdleTimeout: true,
		})
		clk.Sleep(6 * time.Second) // 12 s since Remember, 6 s since touch
		if _, ok := fm.Lookup(client, rig.svc.Addr); !ok {
			t.Fatal("reverse-rule removal did not refresh the memorized flow")
		}

		// Forward rule: client in Match.SrcIP.
		clk.Sleep(6 * time.Second)
		rig.ctrl.FlowRemoved(nil, openflow.FlowRemoved{
			Match: openflow.Match{
				SrcIP:   client,
				DstIP:   rig.svc.Addr.IP,
				DstPort: rig.svc.Addr.Port,
			},
			Cookie:      rig.svc.cookie,
			IdleTimeout: true,
		})
		clk.Sleep(6 * time.Second)
		if _, ok := fm.Lookup(client, rig.svc.Addr); !ok {
			t.Fatal("forward-rule removal did not refresh the memorized flow")
		}
		if s := rig.ctrl.Stats(); s.FlowRemovedMsgs != 2 {
			t.Errorf("FlowRemovedMsgs = %d, want 2", s.FlowRemovedMsgs)
		}
		// Hard-timeout removals do not refresh.
		clk.Sleep(6 * time.Second)
		rig.ctrl.FlowRemoved(nil, openflow.FlowRemoved{
			Match:       openflow.Match{SrcIP: client, DstIP: rig.svc.Addr.IP, DstPort: rig.svc.Addr.Port},
			Cookie:      rig.svc.cookie,
			IdleTimeout: false,
		})
		clk.Sleep(6 * time.Second)
		if _, ok := fm.Lookup(client, rig.svc.Addr); ok {
			t.Error("hard-timeout removal kept the flow alive")
		}
	})
}

func TestPendingDedupUnderConcurrentPacketIns(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond},
			pullDelay: 2 * time.Second}
		rig := newResilienceRig(t, clk, nil, near)
		client := netem.ParseHostPort("192.168.1.10:43000")

		// Two SYNs of the same flow arrive while the deployment holds the
		// first: the retransmission must not dispatch a second time.
		mkPin := func() openflow.PacketIn {
			return openflow.PacketIn{
				Pkt:    &netem.Packet{Src: client, Dst: rig.svc.Addr, Flags: netem.FlagSYN},
				InPort: 1,
			}
		}
		var g vclock.Group
		g.Go(clk, func() { rig.ctrl.handlePacketIn(rig.sw, mkPin()) })
		g.Go(clk, func() {
			clk.Sleep(500 * time.Millisecond) // mid-deployment retransmission
			rig.ctrl.handlePacketIn(rig.sw, mkPin())
		})
		g.Wait(clk)

		s := rig.ctrl.Stats()
		if s.PacketIns != 2 {
			t.Errorf("PacketIns = %d, want 2", s.PacketIns)
		}
		if s.ScheduleCalls != 1 {
			t.Errorf("ScheduleCalls = %d, want 1 (dedup)", s.ScheduleCalls)
		}
		if _, _, scales := near.calls(); scales != 1 {
			t.Errorf("scale-ups = %d, want 1", scales)
		}
	})
}

// slowScaleCluster is a stubCluster whose ScaleUp takes ten seconds.
type slowScaleCluster struct{ *stubCluster }

func (s slowScaleCluster) ScaleUp(name string) error {
	s.clk.Sleep(10 * time.Second)
	return s.stubCluster.ScaleUp(name)
}

// TestDeployCutShortReportsNothing: a deployment still in a phase when
// the run ends is released at its park and unwinds through runPhases. It
// never finished, so the OnDeploy hook must not see it (a report made in
// a deferred call would, with a nil Err and a zero Wait).
func TestDeployCutShortReportsNothing(t *testing.T) {
	clk := vclock.New()
	var ctrl *Controller
	reports := 0
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}}
		rig := newResilienceRig(t, clk, func(cfg *Config) {
			cfg.Clusters[0] = slowScaleCluster{near}
			cfg.OnDeploy = func(DeployTrace) { reports++ }
		}, near)
		ctrl = rig.ctrl
		clk.Go(func() { rig.ctrl.PreDeploy(rig.svc.Addr, "near") })
		clk.Sleep(time.Second)
	})
	if reports != 0 {
		t.Errorf("OnDeploy called %d times for a deployment that never finished", reports)
	}
	if n := ctrl.Stats().ScaleUps; n != 0 {
		t.Errorf("ScaleUps = %d, want 0", n)
	}
}

// TestStatsCoversEveryCounter: Stats() reports and Add sums every field
// Stats declares, not only the ones a run happens to move.
func TestStatsCoversEveryCounter(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		rig := newResilienceRig(t, clk, nil, &stubCluster{name: "near"})
		counters := reflect.ValueOf(&rig.ctrl.stats).Elem()
		for i := 0; i < counters.NumField(); i++ {
			counters.Field(i).SetInt(int64(i + 1))
		}
		// ChannelDrops comes back with the switches' total added: 0 here.
		got := rig.ctrl.Stats()
		snap, sum := reflect.ValueOf(got), reflect.ValueOf(got.Add(got))
		for i := 0; i < counters.NumField(); i++ {
			name, want := counters.Type().Field(i).Name, int64(i+1)
			if n := snap.Field(i).Int(); n != want {
				t.Errorf("Stats().%s = %d, want %d", name, n, want)
			}
			if n := sum.Field(i).Int(); n != 2*want {
				t.Errorf("Add: %s = %d, want %d", name, n, 2*want)
			}
		}
	})
}
