package testbed

import (
	"strings"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/catalog"
	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/kube"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/registry"
	"github.com/c3lab/transparentedge/internal/trace"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// TestDeployFailureFallsBackToCloud registers a service whose image
// exists nowhere: the deployment fails and the controller must still
// answer the client from the cloud origin.
func TestDeployFailureFallsBackToCloud(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tb := build(t, clk, Options{WithDocker: true, Seed: 30})
		// A service with an unknown image: annotation succeeds, pull fails.
		definition := `spec:
  template:
    spec:
      containers:
      - name: web
        image: ghost/missing:latest
        ports:
        - containerPort: 80
`
		svc, err := tb.Controller.RegisterService(trace.ServiceAddr(0), definition)
		if err != nil {
			t.Fatal(err)
		}
		// The origin still exists in the cloud (run an asm-like origin
		// at the registered address).
		asm := mustService(t, "asm")
		if err := tb.startOrigin(asm, svc.Addr); err != nil {
			t.Fatal(err)
		}
		tb.Cloud.SetInstance(svc.Name, svc.Addr)

		client := tb.Client(0)
		conn, err := client.DialTimeout(svc.Addr, 30*time.Second)
		if err != nil {
			t.Fatalf("request not answered after deploy failure: %v", err)
		}
		conn.Send([]byte("GET /"))
		resp, err := conn.Recv()
		if err != nil || !strings.HasPrefix(string(resp), "asmttpd") {
			t.Errorf("cloud fallback response = %q, %v", resp, err)
		}
		stats := tb.Controller.Stats()
		if stats.DeployFailures == 0 {
			t.Error("deploy failure not counted")
		}
	})
}

// TestInstanceCrashMidConnection stops the serving container while a
// client connection is open: in-flight requests are reset, and a fresh
// request triggers redeployment.
func TestInstanceCrashMidConnection(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tb := build(t, clk, Options{WithDocker: true, MemoryIdle: time.Hour, Seed: 31})
		h, _ := tb.RegisterCatalogService(mustService(t, "nginx"), trace.ServiceAddr(0))
		tb.PrePull(h, "edge-docker")
		if _, err := tb.Request(0, h); err != nil {
			t.Fatal(err)
		}
		// Open a connection, then kill the instance.
		conn, err := tb.Client(0).Dial(h.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Docker.ScaleDown(h.Svc.Name); err != nil {
			t.Fatal(err)
		}
		conn.Send([]byte("GET /"))
		if _, err := conn.RecvTimeout(30 * time.Second); err == nil {
			t.Error("request answered by a stopped instance")
		}
		// A new request still succeeds: the memorized mapping points at
		// the dead instance, the dial fails fast (RST), and the client
		// retry path goes back through the controller after flows age
		// out. Here we drop the stale memory explicitly, as the
		// controller's scale-down path does.
		tb.Controller.FlowMemory().ForgetService(h.Svc.Name, cluster.Instance{})
		clk.Sleep(15 * time.Second) // switch flows idle out
		res, err := tb.Request(0, h)
		if err != nil {
			t.Fatalf("recovery request: %v", err)
		}
		if res.Total >= time.Second {
			t.Errorf("recovery took %v", res.Total)
		}
	})
}

// TestLossyAccessLinkStillWorks runs the first request over a client
// link with 5% loss: SYN retransmission and per-message retries must
// carry it through.
func TestLossyAccessLinkStillWorks(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tb := build(t, clk, Options{WithDocker: true, Seed: 32})
		h, _ := tb.RegisterCatalogService(mustService(t, "nginx"), trace.ServiceAddr(0))
		tb.PrePull(h, "edge-docker")

		// A fresh client behind a lossy link, attached via the WAN
		// router (the topology's extension point).
		lossy := tb.Net.NewHost("lossy-client", netem.ParseIP("192.168.1.99"))
		port := tb.cloudRouter.Port(200)
		tb.Net.Connect(lossy.NIC(), port, netem.LinkConfig{
			Latency:   time.Millisecond,
			Bandwidth: netem.GbpsToBytes(1),
			LossRate:  0.05,
		})
		tb.cloudRouter.AddRoute(lossy.IP(), port)
		tb.Switch.AddRoute(lossy.IP(), tb.cloudPort)

		conn, err := lossy.DialTimeout(h.Addr, time.Minute)
		if err != nil {
			t.Fatalf("dial over lossy link: %v", err)
		}
		conn.Send([]byte("GET /"))
		resp, err := conn.RecvTimeout(time.Minute)
		if err != nil || len(resp) == 0 {
			t.Errorf("lossy response = %q, %v", resp, err)
		}
	})
}

// TestRegisterServiceValidation exercises registration error paths.
func TestRegisterServiceValidation(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tb := build(t, clk, Options{WithDocker: true, Seed: 33})
		nginx := mustService(t, "nginx")
		if _, err := tb.Controller.RegisterService(trace.ServiceAddr(0), nginx.Definition); err != nil {
			t.Fatal(err)
		}
		// Duplicate address.
		if _, err := tb.Controller.RegisterService(trace.ServiceAddr(0), nginx.Definition); err == nil {
			t.Error("duplicate registration accepted")
		}
		// Broken definition.
		if _, err := tb.Controller.RegisterService(trace.ServiceAddr(1), "spec: {}"); err == nil {
			t.Error("empty definition accepted")
		}
		// Lookups.
		if _, ok := tb.Controller.ServiceByAddr(trace.ServiceAddr(0)); !ok {
			t.Error("registered service not found by address")
		}
		if _, ok := tb.Controller.ServiceByName("edge-203-0-113-1-80"); !ok {
			t.Error("registered service not found by name")
		}
		if _, ok := tb.Controller.ServiceByAddr(trace.ServiceAddr(9)); ok {
			t.Error("phantom service found")
		}
	})
}

// TestCustomLocalSchedulerViaController wires a custom Kubernetes Local
// Scheduler end to end: the controller configuration names it for the
// edge-k8s cluster, the annotation engine writes it into schedulerName,
// and the custom scheduler binds the pod.
func TestCustomLocalSchedulerViaController(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tb := build(t, clk, Options{
			WithKube:        true,
			KubeNodes:       2,
			LocalSchedulers: map[string]string{"edge-k8s": "binpack-scheduler"},
			KubeSchedulers:  map[string]kube.NodePicker{"binpack-scheduler": kube.BinPack{}},
			Seed:            34,
		})
		h, _ := tb.RegisterCatalogService(mustService(t, "nginx"), trace.ServiceAddr(0))
		tb.PrePull(h, "edge-k8s")
		res, err := tb.Request(0, h)
		if err != nil {
			t.Fatalf("request via custom local scheduler: %v", err)
		}
		if res.Total > 6*time.Second {
			t.Errorf("request = %v", res.Total)
		}
		pods := tb.Kube.Kube().API().List(kube.KindPod, nil)
		if len(pods) != 1 {
			t.Fatalf("pods = %d", len(pods))
		}
		p := pods[0].(*kube.Pod)
		if p.Spec.SchedulerName != "binpack-scheduler" {
			t.Errorf("pod schedulerName = %q; annotation engine dropped it", p.Spec.SchedulerName)
		}
		if p.Spec.NodeName == "" {
			t.Error("pod not bound by the custom scheduler")
		}
	})
}

// TestPrivateRegistryOption verifies the UsePrivateRegistry testbed
// variant pulls everything from the local registry.
func TestPrivateRegistryOption(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tb := build(t, clk, Options{WithDocker: true, UsePrivateRegistry: true, Seed: 35})
		h, _ := tb.RegisterCatalogService(mustService(t, "nginx"), trace.ServiceAddr(0))
		start := clk.Now()
		if err := tb.PrePull(h, "edge-docker"); err != nil {
			t.Fatal(err)
		}
		privateTime := clk.Since(start)
		// LAN pull of 135 MiB lands in the ≈1.5–2.5 s band.
		if privateTime > 3*time.Second {
			t.Errorf("private pull = %v; WAN profile leaked in", privateTime)
		}
	})
}

// TestSharedContainerdStoreBetweenClusters verifies the paper's setup
// detail: Docker and Kubernetes share one containerd on the EGS, so a
// pull by either warms the other.
func TestSharedContainerdStoreBetweenClusters(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tb := build(t, clk, Options{WithDocker: true, WithKube: true, Seed: 36})
		h, _ := tb.RegisterCatalogService(mustService(t, "nginx"), trace.ServiceAddr(0))
		if err := tb.PrePull(h, "edge-docker"); err != nil {
			t.Fatal(err)
		}
		// The kube side must now see the image without pulling.
		if !tb.Kube.HasImages(h.Svc.Annotated.Spec) {
			t.Error("kube cluster does not see the shared containerd store")
		}
		start := clk.Now()
		if err := tb.PrePull(h, "edge-k8s"); err != nil {
			t.Fatal(err)
		}
		if d := clk.Since(start); d > 50*time.Millisecond {
			t.Errorf("second pull took %v; cache not shared", d)
		}
	})
}

// TestRemoveOnIdleDeletesServiceObjects verifies the optional Remove
// phase after idle scale-down.
func TestRemoveOnIdleDeletesServiceObjects(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tb := build(t, clk, Options{
			WithDocker:     true,
			SwitchFlowIdle: 2 * time.Second,
			MemoryIdle:     8 * time.Second,
			ScaleDownIdle:  true,
			RemoveOnIdle:   true,
			Seed:           37,
		})
		h, _ := tb.RegisterCatalogService(mustService(t, "asm"), trace.ServiceAddr(0))
		tb.PrePull(h, "edge-docker")
		if _, err := tb.Request(0, h); err != nil {
			t.Fatal(err)
		}
		clk.Sleep(time.Minute)
		if tb.Docker.Created(h.Svc.Name) {
			t.Error("service objects survive RemoveOnIdle")
		}
		st := tb.Controller.Stats()
		if st.Removes != 1 {
			t.Errorf("removes = %d, want 1", st.Removes)
		}
		// Even the containers are gone, but the image stays cached; the
		// next request re-runs Create + Scale Up only.
		res, err := tb.Request(0, h)
		if err != nil {
			t.Fatal(err)
		}
		if res.Total >= time.Second {
			t.Errorf("post-remove redeploy = %v", res.Total)
		}
		if tb.Controller.Stats().Creates != 2 {
			t.Errorf("creates = %d, want 2 (re-created after remove)", tb.Controller.Stats().Creates)
		}
	})
}

// TestPullPhaseDirectOnRuntime exercises Pull against a federation with
// the GCR route, the path ResNet takes.
func TestPullPhaseDirectOnRuntime(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tb := build(t, clk, Options{WithDocker: true, Seed: 38})
		resnet := mustService(t, "resnet")
		h, err := tb.RegisterCatalogService(resnet, trace.ServiceAddr(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.PrePull(h, "edge-docker"); err != nil {
			t.Fatalf("pull via GCR federation route: %v", err)
		}
		if !tb.Docker.HasImages(h.Svc.Annotated.Spec) {
			t.Error("resnet image missing after federation pull")
		}
	})
}

// TestConcurrentMixedServices drives all four services from many
// clients at once — the stress shape of the full trace.
func TestConcurrentMixedServices(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tb := build(t, clk, Options{WithDocker: true, Seed: 39})
		var handles []*ServiceHandle
		for i, key := range []string{"asm", "nginx", "resnet", "nginxpy"} {
			h, err := tb.RegisterCatalogService(mustService(t, key), trace.ServiceAddr(i))
			if err != nil {
				t.Fatal(err)
			}
			tb.PrePull(h, "edge-docker")
			handles = append(handles, h)
		}
		var g vclock.Group
		errs := make([]error, 40)
		for i := 0; i < 40; i++ {
			i := i
			g.Go(clk, func() {
				_, errs[i] = tb.Request(i%20, handles[i%4])
			})
		}
		g.Wait(clk)
		for i, err := range errs {
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}
		if got := tb.Controller.Stats().ScaleUps; got != 4 {
			t.Errorf("scale ups = %d, want 4 (one per service)", got)
		}
	})
}

// TestProactiveDeployAtRegistration verifies the Fig. 1 proactive path:
// a service deployed with PreDeploy right after registration is already
// running when the first request arrives, so even the first client sees
// warm-path latency.
func TestProactiveDeployAtRegistration(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tb := build(t, clk, Options{WithDocker: true, Seed: 70})
		h, err := tb.RegisterCatalogService(mustService(t, "nginx"), trace.ServiceAddr(0))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := tb.Controller.PreDeploy(h.Addr, "edge-docker")
		if err != nil {
			t.Fatal(err)
		}
		if got := tb.Docker.Instances(h.Svc.Name); len(got) != 1 || got[0] != inst {
			t.Fatalf("instances after PreDeploy = %v, want [%v]", got, inst)
		}
		res, err := tb.Request(0, h)
		if err != nil {
			t.Fatal(err)
		}
		// First request ≈ dispatch-only: no deployment in its path.
		if res.Total > 100*time.Millisecond {
			t.Errorf("first request with proactive deploy = %v, want dispatch-only", res.Total)
		}
		if tb.Controller.Stats().DeploysWaiting != 0 {
			t.Error("first request still waited for a deployment")
		}
	})
}

// TestRegistryDownDeployFails simulates the upstream registry lacking
// the image entirely (e.g. registry outage at first deploy).
func TestRegistryDownDeployFails(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		n := netem.NewNetwork(clk, 1)
		_ = n
		// Covered at the cluster level: pulling from an empty registry.
		empty := registry.New(clk, 1, registry.DockerHub())
		if _, err := empty.FetchManifest(catalog.ImageNginx); err == nil {
			t.Error("manifest fetch from empty registry succeeded")
		}
	})
}
