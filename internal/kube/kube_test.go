package kube

import (
	"fmt"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/containerd"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/registry"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// mapResolver resolves images from a static table.
type mapResolver map[string]containerd.AppModel

func (m mapResolver) Resolve(image string) (containerd.AppModel, error) {
	model, ok := m[image]
	if !ok {
		return containerd.AppModel{}, fmt.Errorf("unknown image %q", image)
	}
	return model, nil
}

// kubeEnv is a cluster on a small emulated network.
type kubeEnv struct {
	clk     *vclock.Virtual
	cluster *Cluster
	client  *netem.Host
	reg     *registry.Registry
}

func echoModel(port uint16, readyDelay time.Duration) containerd.AppModel {
	return containerd.AppModel{
		Port:       port,
		ReadyDelay: readyDelay,
		Instantiate: func(vols map[string]*containerd.Volume) containerd.AppInstance {
			return containerd.AppInstance{
				Handler: containerd.HandlerFunc(func(clk *vclock.Virtual, req []byte) []byte {
					return append([]byte("echo:"), req...)
				}),
			}
		},
	}
}

// newKubeEnv builds a cluster with the given number of nodes and a
// pre-pulled "web" image.
func newKubeEnv(t *testing.T, clk *vclock.Virtual, nodes int) *kubeEnv {
	t.Helper()
	n := netem.NewNetwork(clk, 1)
	client := n.NewHost("client", netem.ParseIP("192.168.1.10"))
	router := netem.NewRouter(n, "router", nodes+1)
	n.Connect(client.NIC(), router.Port(0), netem.LinkConfig{Latency: time.Millisecond})
	router.AddRoute(client.IP(), router.Port(0))

	reg := registry.New(clk, 7, registry.Private())
	reg.Push(registry.Image{Ref: "web", Layers: []registry.Layer{{Digest: "sha256:web", Size: 10 * registry.MiB}}})
	reg.Push(registry.Image{Ref: "sidecar", Layers: []registry.Layer{{Digest: "sha256:side", Size: registry.MiB}}})

	resolver := mapResolver{
		"web":     echoModel(80, 40*time.Millisecond),
		"sidecar": {ReadyDelay: 10 * time.Millisecond},
	}

	var nodeCfgs []NodeConfig
	for i := 0; i < nodes; i++ {
		host := n.NewHost(fmt.Sprintf("node%d", i), netem.ParseIP(fmt.Sprintf("10.0.0.%d", i+2)))
		n.Connect(host.NIC(), router.Port(i+1), netem.LinkConfig{Latency: time.Millisecond})
		router.AddRoute(host.IP(), router.Port(i+1))
		rt := containerd.NewRuntime(clk, int64(20+i), host, containerd.DefaultTiming())
		if _, err := rt.Pull(reg, "web"); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Pull(reg, "sidecar"); err != nil {
			t.Fatal(err)
		}
		nodeCfgs = append(nodeCfgs, NodeConfig{Name: fmt.Sprintf("node%d", i), Runtime: rt})
	}

	cluster, err := NewCluster(clk, Config{
		Name:     "edge-k8s",
		Timing:   DefaultTiming(),
		Registry: reg,
		Resolver: resolver,
		Nodes:    nodeCfgs,
		ExtraSchedulers: map[string]NodePicker{
			"binpack-scheduler": BinPack{},
		},
		Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &kubeEnv{clk: clk, cluster: cluster, client: client, reg: reg}
}

func webDeployment(name string, replicas int) *Deployment {
	labels := map[string]string{"app": name, "edge.service": name}
	return &Deployment{
		ObjectMeta: ObjectMeta{Name: name, Labels: copyMap(labels)},
		Spec: DeploymentSpec{
			Replicas: replicas,
			Selector: copyMap(labels),
			Template: PodTemplate{
				Labels:     copyMap(labels),
				Containers: []ContainerSpec{{Name: "web", Image: "web", Port: 80}},
			},
		},
	}
}

func webService(name string) *Service {
	labels := map[string]string{"app": name, "edge.service": name}
	return &Service{
		ObjectMeta: ObjectMeta{Name: name, Labels: copyMap(labels)},
		Spec: ServiceSpec{
			Selector: copyMap(labels),
			Ports:    []ServicePort{{Port: 80, TargetPort: 80, Protocol: "TCP"}},
		},
	}
}

func TestAPICreateGetUpdateDelete(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		api := NewAPI(clk, 1, DefaultTiming())
		d := webDeployment("svc", 0)
		if err := api.Create(d); err != nil {
			t.Fatal(err)
		}
		if d.ResourceVersion == 0 {
			t.Error("create did not assign resource version")
		}
		if err := api.Create(webDeployment("svc", 0)); err == nil {
			t.Error("duplicate create succeeded")
		}
		got, ok := api.Get(KindDeployment, "svc")
		if !ok {
			t.Fatal("Get failed")
		}
		// Mutating the returned copy must not affect the store.
		got.(*Deployment).Spec.Replicas = 99
		again, _ := api.Get(KindDeployment, "svc")
		if again.(*Deployment).Spec.Replicas != 0 {
			t.Error("Get returned aliased object")
		}
		d.Spec.Replicas = 2
		rvBefore := d.ResourceVersion
		if err := api.Update(d); err != nil {
			t.Fatal(err)
		}
		if d.ResourceVersion <= rvBefore {
			t.Error("update did not bump resource version")
		}
		if err := api.Delete(KindDeployment, "svc"); err != nil {
			t.Fatal(err)
		}
		if err := api.Delete(KindDeployment, "svc"); err == nil {
			t.Error("double delete succeeded")
		}
		if err := api.Update(d); err == nil {
			t.Error("update of deleted object succeeded")
		}
	})
}

func TestAPIWatchReplayAndLiveEvents(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		api := NewAPI(clk, 1, DefaultTiming())
		api.Create(webDeployment("a", 0))
		w := api.Watch(KindDeployment)
		ev, ok := w.RecvTimeout(time.Second)
		if !ok || ev.Type != Added || ev.Object.Meta().Name != "a" {
			t.Fatalf("replay event = %+v, %v", ev, ok)
		}
		api.Create(webDeployment("b", 0))
		ev, ok = w.RecvTimeout(time.Second)
		if !ok || ev.Type != Added || ev.Object.Meta().Name != "b" {
			t.Fatalf("live event = %+v, %v", ev, ok)
		}
		api.Delete(KindDeployment, "a")
		ev, ok = w.RecvTimeout(time.Second)
		if !ok || ev.Type != Deleted || ev.Object.Meta().Name != "a" {
			t.Fatalf("delete event = %+v, %v", ev, ok)
		}
		w.Stop()
		if _, ok := w.RecvTimeout(time.Second); ok {
			t.Error("event after Stop")
		}
	})
}

func TestAPIListSelector(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		api := NewAPI(clk, 1, DefaultTiming())
		api.Create(webDeployment("a", 0))
		api.Create(webDeployment("b", 0))
		all := api.List(KindDeployment, nil)
		if len(all) != 2 || all[0].Meta().Name != "a" {
			t.Errorf("List = %v", all)
		}
		sel := api.List(KindDeployment, map[string]string{"app": "a"})
		if len(sel) != 1 || sel[0].Meta().Name != "a" {
			t.Errorf("selector list = %v", sel)
		}
	})
}

func TestDeploymentCreatesReplicaSetNoPodsAtZero(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		env := newKubeEnv(t, clk, 1)
		if err := env.cluster.CreateDeployment(webDeployment("svc", 0)); err != nil {
			t.Fatal(err)
		}
		clk.Sleep(2 * time.Second)
		if _, ok := env.cluster.API().Get(KindReplicaSet, "svc-rs"); !ok {
			t.Error("replica set not created")
		}
		if pods := env.cluster.API().List(KindPod, nil); len(pods) != 0 {
			t.Errorf("scale-to-zero deployment has %d pods", len(pods))
		}
	})
}

func TestScaleUpProducesReadyEndpointWithinKubeBudget(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		env := newKubeEnv(t, clk, 1)
		env.cluster.CreateDeployment(webDeployment("svc", 0))
		env.cluster.CreateService(webService("svc"))
		clk.Sleep(2 * time.Second) // let create settle (paper's Create phase)

		start := clk.Now()
		if err := env.cluster.Scale("svc", 1); err != nil {
			t.Fatal(err)
		}
		addr, ok := env.cluster.WaitReadyEndpoint("svc", 100*time.Millisecond, 30*time.Second)
		if !ok {
			t.Fatal("no ready endpoint after scale up")
		}
		elapsed := clk.Since(start)
		// The orchestrator pipeline should land around the paper's ≈3s.
		if elapsed < 1200*time.Millisecond || elapsed > 5*time.Second {
			t.Errorf("k8s scale-up took %v, want ≈2–4s", elapsed)
		}
		conn, err := env.client.Dial(addr)
		if err != nil {
			t.Fatalf("dial endpoint: %v", err)
		}
		conn.Send([]byte("hi"))
		resp, err := conn.Recv()
		if err != nil || string(resp) != "echo:hi" {
			t.Errorf("resp = %q, %v", resp, err)
		}
	})
}

func TestScaleDownRemovesPodsAndClosesPort(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		env := newKubeEnv(t, clk, 1)
		env.cluster.CreateDeployment(webDeployment("svc", 1))
		env.cluster.CreateService(webService("svc"))
		addr, ok := env.cluster.WaitReadyEndpoint("svc", 100*time.Millisecond, 30*time.Second)
		if !ok {
			t.Fatal("no endpoint")
		}
		env.cluster.Scale("svc", 0)
		clk.Sleep(5 * time.Second)
		if pods := env.cluster.API().List(KindPod, nil); len(pods) != 0 {
			t.Errorf("%d pods survive scale-down", len(pods))
		}
		if eps := env.cluster.ReadyEndpoints("svc"); len(eps) != 0 {
			t.Errorf("endpoints after scale-down: %v", eps)
		}
		if _, err := env.client.Dial(addr); err == nil {
			t.Error("old endpoint still accepts connections")
		}
	})
}

func TestScaleSpreadAcrossNodes(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		env := newKubeEnv(t, clk, 2)
		env.cluster.CreateDeployment(webDeployment("svc", 4))
		env.cluster.CreateService(webService("svc"))
		deadline := clk.Now().Add(time.Minute)
		for {
			if len(env.cluster.ReadyEndpoints("svc")) == 4 {
				break
			}
			if clk.Now().After(deadline) {
				t.Fatalf("only %d/4 endpoints ready", len(env.cluster.ReadyEndpoints("svc")))
			}
			clk.Sleep(200 * time.Millisecond)
		}
		perNode := map[string]int{}
		for _, obj := range env.cluster.API().List(KindPod, nil) {
			perNode[obj.(*Pod).Spec.NodeName]++
		}
		if perNode["node0"] != 2 || perNode["node1"] != 2 {
			t.Errorf("LeastLoaded spread = %v, want 2/2", perNode)
		}
	})
}

func TestCustomSchedulerBinPack(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		env := newKubeEnv(t, clk, 2)
		d := webDeployment("svc", 3)
		d.Spec.Template.SchedulerName = "binpack-scheduler"
		env.cluster.CreateDeployment(d)
		env.cluster.CreateService(webService("svc"))
		deadline := clk.Now().Add(time.Minute)
		for len(env.cluster.ReadyEndpoints("svc")) < 3 {
			if clk.Now().After(deadline) {
				t.Fatal("pods never ready under custom scheduler")
			}
			clk.Sleep(200 * time.Millisecond)
		}
		perNode := map[string]int{}
		for _, obj := range env.cluster.API().List(KindPod, nil) {
			perNode[obj.(*Pod).Spec.NodeName]++
		}
		// BinPack packs everything onto one node.
		for _, n := range perNode {
			if n != 0 && n != 3 {
				t.Errorf("binpack spread = %v, want all on one node", perNode)
			}
		}
	})
}

func TestUnknownSchedulerLeavesPodsPending(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		env := newKubeEnv(t, clk, 1)
		d := webDeployment("svc", 1)
		d.Spec.Template.SchedulerName = "no-such-scheduler"
		env.cluster.CreateDeployment(d)
		clk.Sleep(10 * time.Second)
		pods := env.cluster.API().List(KindPod, nil)
		if len(pods) != 1 {
			t.Fatalf("pods = %d", len(pods))
		}
		p := pods[0].(*Pod)
		if p.Spec.NodeName != "" || p.Status.Phase != PodPending {
			t.Errorf("pod = %+v, want pending and unbound", p.Status)
		}
	})
}

func TestDeleteDeploymentReapsEverything(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		env := newKubeEnv(t, clk, 1)
		env.cluster.CreateDeployment(webDeployment("svc", 2))
		env.cluster.CreateService(webService("svc"))
		deadline := clk.Now().Add(time.Minute)
		for len(env.cluster.ReadyEndpoints("svc")) < 2 {
			if clk.Now().After(deadline) {
				t.Fatal("pods never ready")
			}
			clk.Sleep(200 * time.Millisecond)
		}
		env.cluster.DeleteDeployment("svc")
		clk.Sleep(5 * time.Second)
		if _, ok := env.cluster.API().Get(KindReplicaSet, "svc-rs"); ok {
			t.Error("replica set survives deployment deletion")
		}
		if pods := env.cluster.API().List(KindPod, nil); len(pods) != 0 {
			t.Errorf("%d pods survive deployment deletion", len(pods))
		}
	})
}

func TestMultiContainerPodReadyWhenAllReady(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		env := newKubeEnv(t, clk, 1)
		d := webDeployment("combo", 1)
		d.Spec.Template.Containers = []ContainerSpec{
			{Name: "web", Image: "web", Port: 80},
			{Name: "side", Image: "sidecar"},
		}
		d.Spec.Template.Volumes = []string{"shared"}
		env.cluster.CreateDeployment(d)
		env.cluster.CreateService(webService("combo"))
		addr, ok := env.cluster.WaitReadyEndpoint("combo", 100*time.Millisecond, 30*time.Second)
		if !ok {
			t.Fatal("multi-container pod never ready")
		}
		if _, err := env.client.Dial(addr); err != nil {
			t.Errorf("dial: %v", err)
		}
	})
}

func TestFailedImageMarksPodFailed(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		env := newKubeEnv(t, clk, 1)
		d := webDeployment("bad", 1)
		d.Spec.Template.Containers = []ContainerSpec{{Name: "x", Image: "ghost", Port: 80}}
		env.cluster.CreateDeployment(d)
		deadline := clk.Now().Add(30 * time.Second)
		for {
			pods := env.cluster.API().List(KindPod, nil)
			if len(pods) > 0 && pods[0].(*Pod).Status.Phase == PodFailed {
				return
			}
			if clk.Now().After(deadline) {
				t.Fatal("pod with unknown image never failed")
			}
			clk.Sleep(500 * time.Millisecond)
		}
	})
}

func TestNodeCapacityLimitsScheduling(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		n := netem.NewNetwork(clk, 1)
		host := n.NewHost("node0", netem.ParseIP("10.0.0.2"))
		rt := containerd.NewRuntime(clk, 2, host, containerd.DefaultTiming())
		reg := registry.New(clk, 3, registry.Private())
		reg.Push(registry.Image{Ref: "web", Layers: []registry.Layer{{Digest: "sha256:w", Size: registry.MiB}}})
		rt.Pull(reg, "web")
		cluster, err := NewCluster(clk, Config{
			Name:     "tiny",
			Timing:   DefaultTiming(),
			Registry: reg,
			Resolver: mapResolver{"web": echoModel(80, time.Millisecond)},
			Nodes:    []NodeConfig{{Name: "node0", Runtime: rt, Capacity: 1}},
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		cluster.CreateDeployment(webDeployment("svc", 2))
		clk.Sleep(15 * time.Second)
		bound := 0
		for _, obj := range cluster.API().List(KindPod, nil) {
			if obj.(*Pod).Spec.NodeName != "" {
				bound++
			}
		}
		if bound != 1 {
			t.Errorf("bound pods = %d, want 1 (capacity)", bound)
		}
	})
}

func TestValidateSelectorRejectsMismatch(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		env := newKubeEnv(t, clk, 1)
		d := webDeployment("svc", 0)
		d.Spec.Template.Labels = map[string]string{"app": "other"}
		if err := env.cluster.CreateDeployment(d); err == nil {
			t.Error("mismatched selector accepted")
		}
		d2 := webDeployment("svc2", 0)
		d2.Spec.Selector = nil
		if err := env.cluster.CreateDeployment(d2); err == nil {
			t.Error("empty selector accepted")
		}
	})
}

func TestClusterHelpers(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		env := newKubeEnv(t, clk, 1)
		if env.cluster.Name() != "edge-k8s" {
			t.Errorf("Name = %q", env.cluster.Name())
		}
		if env.cluster.HasDeployment("svc") {
			t.Error("phantom deployment")
		}
		if err := env.cluster.Scale("svc", 1); err == nil {
			t.Error("scaling a missing deployment succeeded")
		}
		env.cluster.CreateDeployment(webDeployment("svc", 0))
		if !env.cluster.HasDeployment("svc") {
			t.Error("HasDeployment = false after create")
		}
		if r, ok := env.cluster.Replicas("svc"); !ok || r != 0 {
			t.Errorf("Replicas = %d, %v", r, ok)
		}
		// Scale to the same value is a no-op.
		if err := env.cluster.Scale("svc", 0); err != nil {
			t.Errorf("no-op scale: %v", err)
		}
	})
}

func TestEventTypeString(t *testing.T) {
	for ev, want := range map[EventType]string{Added: "ADDED", Modified: "MODIFIED", Deleted: "DELETED", EventType(9): "UNKNOWN"} {
		if ev.String() != want {
			t.Errorf("%d = %q", int(ev), ev.String())
		}
	}
}
