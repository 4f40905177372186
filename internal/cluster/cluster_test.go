package cluster

import (
	"fmt"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/containerd"
	"github.com/c3lab/transparentedge/internal/docker"
	"github.com/c3lab/transparentedge/internal/kube"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/registry"
	"github.com/c3lab/transparentedge/internal/vclock"
)

type mapResolver map[string]containerd.AppModel

func (m mapResolver) Resolve(image string) (containerd.AppModel, error) {
	model, ok := m[image]
	if !ok {
		return containerd.AppModel{}, fmt.Errorf("unknown image %q", image)
	}
	return model, nil
}

func testResolver() mapResolver {
	return mapResolver{
		"web": {
			Port:       80,
			ReadyDelay: 40 * time.Millisecond,
			Instantiate: func(vols map[string]*containerd.Volume) containerd.AppInstance {
				return containerd.AppInstance{Handler: containerd.HandlerFunc(
					func(clk *vclock.Virtual, req []byte) []byte { return []byte("hello") })}
			},
		},
		"side": {ReadyDelay: 10 * time.Millisecond},
	}
}

func testRegistry(clk *vclock.Virtual) *registry.Registry {
	reg := registry.New(clk, 3, registry.Private())
	reg.Push(registry.Image{Ref: "web", Layers: []registry.Layer{{Digest: "sha256:web", Size: 10 * registry.MiB}}})
	reg.Push(registry.Image{Ref: "side", Layers: []registry.Layer{{Digest: "sha256:side", Size: registry.MiB}}})
	return reg
}

func webSpec(name string) Spec {
	return Spec{
		Name:        name,
		Labels:      map[string]string{"app": name},
		Containers:  []ContainerDef{{Name: "web", Image: "web", Port: 80}},
		ServicePort: 80,
	}
}

// both builds a docker cluster and a kube cluster on one network so the
// adapter tests run identical scenarios against both kinds.
func both(t *testing.T, clk *vclock.Virtual) (*DockerCluster, *KubeCluster, *netem.Host) {
	t.Helper()
	n := netem.NewNetwork(clk, 1)
	client := n.NewHost("client", netem.ParseIP("192.168.1.10"))
	dockerHost := n.NewHost("docker0", netem.ParseIP("10.0.0.2"))
	kubeHost := n.NewHost("kube0", netem.ParseIP("10.0.0.3"))
	r := netem.NewRouter(n, "r", 3)
	n.Connect(client.NIC(), r.Port(0), netem.LinkConfig{Latency: time.Millisecond})
	n.Connect(dockerHost.NIC(), r.Port(1), netem.LinkConfig{Latency: time.Millisecond})
	n.Connect(kubeHost.NIC(), r.Port(2), netem.LinkConfig{Latency: time.Millisecond})
	r.AddRoute(client.IP(), r.Port(0))
	r.AddRoute(dockerHost.IP(), r.Port(1))
	r.AddRoute(kubeHost.IP(), r.Port(2))

	reg := testRegistry(clk)
	resolver := testResolver()

	dockerRT := containerd.NewRuntime(clk, 10, dockerHost, containerd.DefaultTiming())
	engine := docker.NewEngine(clk, 11, dockerRT, resolver, docker.DefaultTiming())
	dc := NewDockerCluster("edge-docker", engine, reg, Location{Tier: 0, Latency: 2 * time.Millisecond})

	kubeRT := containerd.NewRuntime(clk, 12, kubeHost, containerd.DefaultTiming())
	kc, err := kube.NewCluster(clk, kube.Config{
		Name:     "edge-k8s",
		Timing:   kube.DefaultTiming(),
		Registry: reg,
		Resolver: resolver,
		Nodes:    []kube.NodeConfig{{Name: "node0", Runtime: kubeRT}},
		Seed:     13,
	})
	if err != nil {
		t.Fatal(err)
	}
	kub := NewKubeCluster("edge-k8s", kc, []*containerd.Runtime{kubeRT}, reg, Location{Tier: 1, Latency: 5 * time.Millisecond})
	return dc, kub, client
}

// clusters returns both adapters as the generic interface.
func clusters(t *testing.T, clk *vclock.Virtual) []Cluster {
	d, k, _ := both(t, clk)
	return []Cluster{d, k}
}

func TestSpecValidate(t *testing.T) {
	valid := webSpec("s")
	if err := valid.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for name, spec := range map[string]Spec{
		"no name":       {Containers: []ContainerDef{{Name: "c", Image: "i", Port: 80}}},
		"no containers": {Name: "s"},
		"no image":      {Name: "s", Containers: []ContainerDef{{Name: "c", Port: 80}}},
		"no port":       {Name: "s", Containers: []ContainerDef{{Name: "c", Image: "i"}}},
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSpecImagesDedup(t *testing.T) {
	s := Spec{Containers: []ContainerDef{
		{Name: "a", Image: "x"}, {Name: "b", Image: "y"}, {Name: "c", Image: "x"},
	}}
	imgs := s.Images()
	if len(imgs) != 2 || imgs[0] != "x" || imgs[1] != "y" {
		t.Errorf("Images = %v", imgs)
	}
}

func TestPhasesOnBothKinds(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		for _, c := range clusters(t, clk) {
			spec := webSpec("svc")
			if c.HasImages(spec) {
				t.Errorf("%s: images cached before pull", c.Name())
			}
			if err := c.Pull(spec); err != nil {
				t.Fatalf("%s pull: %v", c.Name(), err)
			}
			if !c.HasImages(spec) {
				t.Errorf("%s: images missing after pull", c.Name())
			}
			if c.Created("svc") {
				t.Errorf("%s: created before Create", c.Name())
			}
			if err := c.Create(spec); err != nil {
				t.Fatalf("%s create: %v", c.Name(), err)
			}
			clk.Sleep(2 * time.Second)
			if !c.Created("svc") {
				t.Errorf("%s: not created after Create", c.Name())
			}
			if got := c.Instances("svc"); len(got) != 0 {
				t.Errorf("%s: %d instances before scale-up (scale-to-zero violated)", c.Name(), len(got))
			}
			if err := c.ScaleUp("svc"); err != nil {
				t.Fatalf("%s scale up: %v", c.Name(), err)
			}
			deadline := clk.Now().Add(30 * time.Second)
			for len(c.Instances("svc")) == 0 {
				if clk.Now().After(deadline) {
					t.Fatalf("%s: no instance after scale-up", c.Name())
				}
				clk.Sleep(100 * time.Millisecond)
			}
			inst := c.Instances("svc")[0]
			if inst.Cluster != c.Name() || inst.Addr.IsZero() {
				t.Errorf("%s: instance = %+v", c.Name(), inst)
			}
			if err := c.ScaleDown("svc"); err != nil {
				t.Fatalf("%s scale down: %v", c.Name(), err)
			}
			deadline = clk.Now().Add(30 * time.Second)
			for len(c.Instances("svc")) != 0 {
				if clk.Now().After(deadline) {
					t.Fatalf("%s: instance survives scale-down", c.Name())
				}
				clk.Sleep(100 * time.Millisecond)
			}
			if err := c.Remove("svc"); err != nil {
				t.Fatalf("%s remove: %v", c.Name(), err)
			}
			clk.Sleep(2 * time.Second)
			if c.Created("svc") {
				t.Errorf("%s: still created after Remove", c.Name())
			}
			if err := c.DeleteImages(spec); err != nil {
				t.Fatalf("%s delete images: %v", c.Name(), err)
			}
			if c.HasImages(spec) {
				t.Errorf("%s: images cached after delete", c.Name())
			}
		}
	})
}

func TestDockerScaleUpFasterThanKube(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		d, k, _ := both(t, clk)
		measure := func(c Cluster) time.Duration {
			spec := webSpec("svc-" + string(c.Kind()))
			if err := c.Pull(spec); err != nil {
				t.Fatal(err)
			}
			if err := c.Create(spec); err != nil {
				t.Fatal(err)
			}
			clk.Sleep(2 * time.Second)
			start := clk.Now()
			if err := c.ScaleUp(spec.Name); err != nil {
				t.Fatal(err)
			}
			for len(c.Instances(spec.Name)) == 0 {
				clk.Sleep(50 * time.Millisecond)
			}
			return clk.Since(start)
		}
		dockerTime := measure(d)
		kubeTime := measure(k)
		if dockerTime >= time.Second {
			t.Errorf("docker scale-up = %v, want <1s", dockerTime)
		}
		if kubeTime < 2*dockerTime {
			t.Errorf("kube (%v) not ≥2× docker (%v); orchestrator overhead missing", kubeTime, dockerTime)
		}
	})
}

func TestDockerErrorsOnUnknownService(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		d, _, _ := both(t, clk)
		for name, fn := range map[string]func() error{
			"scaleUp":   func() error { return d.ScaleUp("nope") },
			"scaleDown": func() error { return d.ScaleDown("nope") },
			"remove":    func() error { return d.Remove("nope") },
		} {
			if fn() == nil {
				t.Errorf("%s on unknown service succeeded", name)
			}
		}
		if d.Created("nope") {
			t.Error("unknown service reported created")
		}
		if d.Instances("nope") != nil {
			t.Error("unknown service has instances")
		}
	})
}

func TestDockerDuplicateCreateFails(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		d, _, _ := both(t, clk)
		spec := webSpec("svc")
		d.Pull(spec)
		if err := d.Create(spec); err != nil {
			t.Fatal(err)
		}
		if err := d.Create(spec); err == nil {
			t.Error("duplicate create succeeded")
		}
	})
}

func TestKubeErrorsOnUnknownService(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		_, k, _ := both(t, clk)
		if err := k.ScaleUp("nope"); err == nil {
			t.Error("scale up unknown service succeeded")
		}
		if err := k.ScaleDown("nope"); err == nil {
			t.Error("scale down unknown service succeeded")
		}
	})
}

func TestKubeMultiContainerWithCustomScheduler(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		_, k, client := both(t, clk)
		spec := Spec{
			Name:   "combo",
			Labels: map[string]string{"app": "combo"},
			Containers: []ContainerDef{
				{Name: "web", Image: "web", Port: 80},
				{Name: "side", Image: "side"},
			},
			Volumes:     []string{"shared"},
			ServicePort: 80,
		}
		if err := k.Pull(spec); err != nil {
			t.Fatal(err)
		}
		if err := k.Create(spec); err != nil {
			t.Fatal(err)
		}
		if err := k.ScaleUp("combo"); err != nil {
			t.Fatal(err)
		}
		deadline := clk.Now().Add(30 * time.Second)
		for len(k.Instances("combo")) == 0 {
			if clk.Now().After(deadline) {
				t.Fatal("no instance")
			}
			clk.Sleep(100 * time.Millisecond)
		}
		conn, err := client.Dial(k.Instances("combo")[0].Addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Send([]byte("x"))
		if resp, err := conn.Recv(); err != nil || string(resp) != "hello" {
			t.Errorf("resp = %q, %v", resp, err)
		}
	})
}

func TestStaticCluster(t *testing.T) {
	s := NewStaticCluster("cloud", Location{Tier: 9, Latency: 40 * time.Millisecond})
	addr := netem.ParseHostPort("203.0.113.1:80")
	if s.Created("svc") {
		t.Error("empty static cluster has service")
	}
	s.SetInstance("svc", addr)
	if !s.Created("svc") {
		t.Error("Created = false after SetInstance")
	}
	insts := s.Instances("svc")
	if len(insts) != 1 || insts[0].Addr != addr || insts[0].Cluster != "cloud" {
		t.Errorf("Instances = %v", insts)
	}
	if err := s.Create(Spec{}); err == nil {
		t.Error("static Create succeeded")
	}
	if err := s.Remove("svc"); err == nil {
		t.Error("static Remove succeeded")
	}
	if err := s.Pull(Spec{}); err != nil || !s.HasImages(Spec{}) {
		t.Error("static pull/images should be no-ops")
	}
	if err := s.ScaleUp("svc"); err != nil {
		t.Error("static scale up should be a no-op")
	}
	if s.Kind() != "static" || s.Location().Tier != 9 {
		t.Error("metadata mismatch")
	}
}
