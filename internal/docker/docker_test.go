package docker

import (
	"fmt"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/containerd"
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

type dockerEnv struct {
	clk    *vclock.Virtual
	engine *Engine
	client *netem.Host
	reg    *registry.Registry
}

func newDockerEnv(clk *vclock.Virtual) *dockerEnv {
	n := netem.NewNetwork(clk, 1)
	egs := n.NewHost("egs", netem.ParseIP("10.0.0.2"))
	client := n.NewHost("client", netem.ParseIP("192.168.1.10"))
	n.Connect(egs.NIC(), client.NIC(), netem.LinkConfig{Latency: time.Millisecond})
	rt := containerd.NewRuntime(clk, 2, egs, containerd.DefaultTiming())
	reg := registry.New(clk, 3, registry.Private())
	reg.Push(registry.Image{Ref: "web", Layers: []registry.Layer{{Digest: "sha256:web", Size: 10 * registry.MiB}}})
	reg.Push(registry.Image{Ref: "writer", Layers: []registry.Layer{{Digest: "sha256:wr", Size: registry.MiB}}})

	resolver := mapResolver{
		"web": {
			Port:       80,
			ReadyDelay: 40 * time.Millisecond,
			Instantiate: func(vols map[string]*containerd.Volume) containerd.AppInstance {
				shared := vols["www"]
				return containerd.AppInstance{
					Handler: containerd.HandlerFunc(func(req []byte) []byte {
						if shared != nil {
							if data, ok := shared.Read("index.html"); ok {
								return data
							}
						}
						return append([]byte("echo:"), req...)
					}),
				}
			},
		},
		"writer": {
			ReadyDelay: 10 * time.Millisecond,
			Instantiate: func(vols map[string]*containerd.Volume) containerd.AppInstance {
				shared := vols["www"]
				return containerd.AppInstance{
					Background: func(clk *vclock.Virtual, stop *vclock.Gate) {
						var write func()
						write = func() {
							if stop.IsOpen() {
								return
							}
							shared.Write("index.html", []byte("written at "+clk.Now().Format(time.RFC3339)))
							clk.Post(time.Second, write)
						}
						write()
					},
				}
			},
		},
	}
	return &dockerEnv{
		clk:    clk,
		engine: NewEngine(clk, 4, rt, resolver, DefaultTiming()),
		client: client,
		reg:    reg,
	}
}

func TestPullListRemove(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newDockerEnv(clk)
		if _, err := e.engine.ImagePull(e.reg, "web"); err != nil {
			t.Fatal(err)
		}
		if !e.engine.HasImage("web") {
			t.Error("HasImage = false after pull")
		}
		if list := e.engine.ImageList(); len(list) != 1 || list[0] != "web" {
			t.Errorf("ImageList = %v", list)
		}
		if err := e.engine.ImageRemove("web"); err != nil {
			t.Fatal(err)
		}
		if e.engine.HasImage("web") {
			t.Error("image survives removal")
		}
		if _, err := e.engine.ImagePull(e.reg, "ghost"); err == nil {
			t.Error("pull of unknown image succeeded")
		}
	})
}

func TestCreateStartServeUnderOneSecond(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newDockerEnv(clk)
		e.engine.ImagePull(e.reg, "web")
		ctr, err := e.engine.ContainerCreate(CreateOptions{
			Name:   "svc-web",
			Image:  "web",
			Labels: map[string]string{"edge.service": "svc"},
		})
		if err != nil {
			t.Fatal(err)
		}
		start := clk.Now()
		if err := e.engine.ContainerStart("svc-web"); err != nil {
			t.Fatal(err)
		}
		if !ctr.WaitReady(5 * time.Second) {
			t.Fatal("never ready")
		}
		elapsed := clk.Since(start)
		// The paper's headline: Docker scale-up stays below one second.
		if elapsed >= time.Second {
			t.Errorf("docker start-to-ready = %v, want <1s", elapsed)
		}
		conn, err := e.client.Dial(ctr.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Send([]byte("hi"))
		resp, err := conn.Recv()
		if err != nil || string(resp) != "echo:hi" {
			t.Errorf("resp = %q, %v", resp, err)
		}
	})
}

func TestCreateUnknownImageOrResolver(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newDockerEnv(clk)
		if _, err := e.engine.ContainerCreate(CreateOptions{Name: "x", Image: "nope"}); err == nil {
			t.Error("create with unknown model succeeded")
		}
		// Known model but image not pulled.
		if _, err := e.engine.ContainerCreate(CreateOptions{Name: "x", Image: "web"}); err == nil {
			t.Error("create without pulled image succeeded")
		}
	})
}

func TestLifecycleErrorsOnMissingContainer(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newDockerEnv(clk)
		if err := e.engine.ContainerStart("ghost"); err == nil {
			t.Error("start missing container succeeded")
		}
		if err := e.engine.ContainerStop("ghost"); err == nil {
			t.Error("stop missing container succeeded")
		}
		if err := e.engine.ContainerRemove("ghost"); err == nil {
			t.Error("remove missing container succeeded")
		}
		if e.engine.ContainerInspect("ghost") != nil {
			t.Error("inspect missing container returned container")
		}
	})
}

func TestSharedVolumeBetweenContainers(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newDockerEnv(clk)
		e.engine.ImagePull(e.reg, "web")
		e.engine.ImagePull(e.reg, "writer")
		labels := map[string]string{"edge.service": "combo"}
		web, err := e.engine.ContainerCreate(CreateOptions{Name: "combo-web", Image: "web", Labels: labels, VolumeNames: []string{"www"}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.engine.ContainerCreate(CreateOptions{Name: "combo-writer", Image: "writer", Labels: labels, VolumeNames: []string{"www"}}); err != nil {
			t.Fatal(err)
		}
		e.engine.ContainerStart("combo-writer")
		e.engine.ContainerStart("combo-web")
		web.WaitReady(5 * time.Second)
		clk.Sleep(2 * time.Second) // give the writer a couple of ticks

		conn, err := e.client.Dial(web.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Send([]byte("GET /"))
		resp, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) == "echo:GET /" {
			t.Error("nginx served fallback; volume content not visible")
		}
		if e.engine.VolumeInspect("www") == nil {
			t.Error("engine lost the named volume")
		}
	})
}

func TestContainerListSelector(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newDockerEnv(clk)
		e.engine.ImagePull(e.reg, "web")
		e.engine.ContainerCreate(CreateOptions{Name: "a", Image: "web", Labels: map[string]string{"edge.service": "s1"}})
		e.engine.ContainerCreate(CreateOptions{Name: "b", Image: "web", Labels: map[string]string{"edge.service": "s2"}})
		got := e.engine.ContainerList(map[string]string{"edge.service": "s1"})
		if len(got) != 1 || got[0].Name() != "a" {
			t.Errorf("ContainerList = %v", got)
		}
		all := e.engine.ContainerList(nil)
		if len(all) != 2 || all[0].Name() != "a" || all[1].Name() != "b" {
			t.Errorf("unsorted or wrong list: %v", all)
		}
	})
}

func TestStopThenRemoveFreesName(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newDockerEnv(clk)
		e.engine.ImagePull(e.reg, "web")
		ctr, _ := e.engine.ContainerCreate(CreateOptions{Name: "x", Image: "web"})
		e.engine.ContainerStart("x")
		ctr.WaitReady(5 * time.Second)
		if err := e.engine.ContainerStop("x"); err != nil {
			t.Fatal(err)
		}
		if err := e.engine.ContainerRemove("x"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.engine.ContainerCreate(CreateOptions{Name: "x", Image: "web"}); err != nil {
			t.Errorf("name not freed: %v", err)
		}
	})
}
