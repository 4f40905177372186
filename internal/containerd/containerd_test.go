package containerd

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/registry"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// env bundles one runtime on a two-host network (runtime host + client).
type env struct {
	clk    *vclock.Virtual
	net    *netem.Network
	rt     *Runtime
	client *netem.Host
	reg    *registry.Registry
}

func newEnv() *env {
	clk := vclock.New()
	n := netem.NewNetwork(clk, 1)
	server := n.NewHost("egs", netem.ParseIP("10.0.0.2"))
	client := n.NewHost("client", netem.ParseIP("10.0.0.3"))
	n.Connect(server.NIC(), client.NIC(), netem.LinkConfig{Latency: time.Millisecond})
	return &env{
		clk:    clk,
		net:    n,
		rt:     NewRuntime(clk, 2, server, DefaultTiming()),
		client: client,
		reg:    registry.New(clk, 3, registry.Private()),
	}
}

func imageOf(ref string, layerSizes ...int64) registry.Image {
	im := registry.Image{Ref: ref}
	for i, s := range layerSizes {
		im.Layers = append(im.Layers, registry.Layer{Digest: registry.LayerDigest(ref, i), Size: s})
	}
	return im
}

func echoHandler() Handler {
	return HandlerFunc(func(req []byte) []byte {
		return append([]byte("ok:"), req...)
	})
}

// slowHandler answers "late" after d of processing time.
type slowHandler struct{ d time.Duration }

func (h slowHandler) Delay([]byte) time.Duration { return h.d }
func (slowHandler) Respond([]byte) []byte        { return []byte("late") }

func (e *env) pulled(ref string, layerSizes ...int64) {
	e.reg.Push(imageOf(ref, layerSizes...))
	if _, err := e.rt.Pull(e.reg, ref); err != nil {
		panic(err)
	}
}

func TestPullRegistersImage(t *testing.T) {
	e := newEnv()
	e.clk.Run(func() {
		e.reg.Push(imageOf("nginx", 10*registry.MiB, 5*registry.MiB))
		d, err := e.rt.Pull(e.reg, "nginx")
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Error("pull reported zero duration")
		}
		if !e.rt.Store().HasImage("nginx") {
			t.Error("image missing after pull")
		}
		// Second pull is a cache hit.
		d2, err := e.rt.Pull(e.reg, "nginx")
		if err != nil || d2 != 0 {
			t.Errorf("cached pull = %v, %v; want 0, nil", d2, err)
		}
	})
}

func TestPullMissingImageFails(t *testing.T) {
	e := newEnv()
	e.clk.Run(func() {
		if _, err := e.rt.Pull(e.reg, "ghost"); err == nil {
			t.Error("pull of unpublished image succeeded")
		}
	})
}

func TestConcurrentPullsCoalesce(t *testing.T) {
	e := newEnv()
	e.clk.Run(func() {
		e.reg.Push(imageOf("big", 200*registry.MiB))
		var g vclock.Group
		errs := make([]error, 8)
		for i := 0; i < 8; i++ {
			i := i
			g.Go(e.clk, func() {
				_, errs[i] = e.rt.Pull(e.reg, "big")
			})
		}
		g.Wait(e.clk)
		for i, err := range errs {
			if err != nil {
				t.Errorf("pull %d: %v", i, err)
			}
		}
		if !e.rt.Store().HasImage("big") {
			t.Fatal("image missing")
		}
		// Coalescing means the store downloaded the bytes exactly once:
		// cached bytes equal one copy of the image.
		if got := e.rt.Store().CachedBytes(); got != 200*registry.MiB {
			t.Errorf("cached bytes = %d, want one copy", got)
		}
	})
}

func TestLayerDedupAcrossImages(t *testing.T) {
	e := newEnv()
	e.clk.Run(func() {
		shared := registry.Layer{Digest: "sha256:base", Size: 100 * registry.MiB}
		a := registry.Image{Ref: "a", Layers: []registry.Layer{shared, {Digest: "sha256:a1", Size: 10 * registry.MiB}}}
		b := registry.Image{Ref: "b", Layers: []registry.Layer{shared, {Digest: "sha256:b1", Size: 20 * registry.MiB}}}
		e.reg.Push(a)
		e.reg.Push(b)
		dA, _ := e.rt.Pull(e.reg, "a")
		dB, _ := e.rt.Pull(e.reg, "b")
		if dB >= dA {
			t.Errorf("pull of b (%v) not faster than a (%v) despite shared 100MiB base", dB, dA)
		}
		if got, want := e.rt.Store().CachedBytes(), int64(130*registry.MiB); got != want {
			t.Errorf("cached bytes = %d, want %d (base stored once)", got, want)
		}
		// Removing a keeps the shared base (b still references it).
		if err := e.rt.Store().RemoveImage("a"); err != nil {
			t.Fatal(err)
		}
		if !e.rt.Store().HasLayer("sha256:base") {
			t.Error("shared base deleted while still referenced")
		}
		if e.rt.Store().HasLayer("sha256:a1") {
			t.Error("unreferenced layer survived removal")
		}
		// Removing b releases everything.
		if err := e.rt.Store().RemoveImage("b"); err != nil {
			t.Fatal(err)
		}
		if e.rt.Store().CachedBytes() != 0 {
			t.Error("layers leaked after removing all images")
		}
	})
}

func TestRemoveMissingImageFails(t *testing.T) {
	e := newEnv()
	e.clk.Run(func() {
		if err := e.rt.Store().RemoveImage("ghost"); err == nil {
			t.Error("removing unknown image succeeded")
		}
	})
}

func TestCreateRequiresPulledImage(t *testing.T) {
	e := newEnv()
	e.clk.Run(func() {
		_, err := e.rt.Create(Spec{Name: "c1", Image: "ghost"})
		if err == nil {
			t.Error("create without image succeeded")
		}
	})
}

func TestCreateRequiresHandlerForPort(t *testing.T) {
	e := newEnv()
	e.clk.Run(func() {
		e.pulled("nginx", registry.MiB)
		if _, err := e.rt.Create(Spec{Name: "c1", Image: "nginx", Port: 80}); err == nil {
			t.Error("create with port but no handler succeeded")
		}
	})
}

func TestCreateDuplicateNameFails(t *testing.T) {
	e := newEnv()
	e.clk.Run(func() {
		e.pulled("nginx", registry.MiB)
		spec := Spec{Name: "c1", Image: "nginx"}
		if _, err := e.rt.Create(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := e.rt.Create(spec); err == nil {
			t.Error("duplicate create succeeded")
		}
	})
}

func TestStartupLifecycleAndServing(t *testing.T) {
	e := newEnv()
	e.clk.Run(func() {
		e.pulled("nginx", 100*registry.MiB)
		c, err := e.rt.Create(Spec{
			Name:       "web",
			Image:      "nginx",
			Port:       80,
			ReadyDelay: 40 * time.Millisecond,
			Handler:    echoHandler(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if c.State() != StateCreated {
			t.Errorf("state after create = %v", c.State())
		}
		start := e.clk.Now()
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		if c.State() != StateRunning {
			t.Errorf("state after start = %v", c.State())
		}
		if !c.WaitReady(5 * time.Second) {
			t.Fatal("container never became ready")
		}
		startup := e.clk.Since(start)
		// NetNS (320ms) dominates: Mohan et al.'s ≈90% claim means
		// startup sits near 400ms for a trivial app.
		if startup < 300*time.Millisecond || startup > 600*time.Millisecond {
			t.Errorf("startup = %v, want ≈0.4s dominated by netns setup", startup)
		}

		conn, err := e.client.Dial(c.Addr())
		if err != nil {
			t.Fatalf("dial ready container: %v", err)
		}
		conn.Send([]byte("ping"))
		resp, err := conn.Recv()
		if err != nil || string(resp) != "ok:ping" {
			t.Errorf("resp = %q, %v", resp, err)
		}
	})
}

func TestPortClosedUntilReady(t *testing.T) {
	e := newEnv()
	e.clk.Run(func() {
		e.pulled("slow", registry.MiB)
		c, _ := e.rt.Create(Spec{
			Name:       "slow",
			Image:      "slow",
			Port:       80,
			ReadyDelay: 2 * time.Second,
			Handler:    echoHandler(),
		})
		c.Start()
		// Immediately after start the app is still initializing: the SDN
		// controller's port probe must see a refused connection.
		if _, err := e.client.Dial(c.Addr()); err == nil {
			t.Error("dial succeeded before app ready")
		}
		c.WaitReady(10 * time.Second)
		if _, err := e.client.Dial(c.Addr()); err != nil {
			t.Errorf("dial after ready: %v", err)
		}
	})
}

func TestStartInvalidStates(t *testing.T) {
	e := newEnv()
	e.clk.Run(func() {
		e.pulled("img", registry.MiB)
		c, _ := e.rt.Create(Spec{Name: "c", Image: "img"})
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err == nil {
			t.Error("double start succeeded")
		}
		c.Remove()
		if err := c.Start(); err == nil {
			t.Error("start after remove succeeded")
		}
	})
}

func TestStopClosesPortAndAbortsInFlight(t *testing.T) {
	e := newEnv()
	e.clk.Run(func() {
		e.pulled("img", registry.MiB)
		c, _ := e.rt.Create(Spec{
			Name:    "c",
			Image:   "img",
			Port:    80,
			Handler: slowHandler{5 * time.Second},
		})
		c.Start()
		c.WaitReady(time.Second)
		conn, err := e.client.Dial(c.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Send([]byte("x"))
		e.clk.Sleep(100 * time.Millisecond)
		if err := c.Stop(); err != nil {
			t.Fatal(err)
		}
		if err := c.Stop(); err != nil {
			t.Errorf("idempotent stop: %v", err)
		}
		if e.rt.Host().Listening(c.HostPort()) {
			t.Error("port still open after stop")
		}
		if resp, err := conn.RecvTimeout(30 * time.Second); !errors.Is(err, netem.ErrReset) {
			t.Errorf("in-flight request after stop: got %q, %v; want ErrReset", resp, err)
		}
		if _, err := e.client.Dial(c.Addr()); err == nil {
			t.Error("new dial succeeded after stop")
		}
	})
}

func TestRestartAfterStop(t *testing.T) {
	e := newEnv()
	e.clk.Run(func() {
		e.pulled("img", registry.MiB)
		c, _ := e.rt.Create(Spec{Name: "c", Image: "img", Port: 80, Handler: echoHandler()})
		c.Start()
		c.WaitReady(time.Second)
		c.Stop()
		if err := c.Start(); err != nil {
			t.Fatalf("restart: %v", err)
		}
		if !c.WaitReady(time.Second) {
			t.Fatal("not ready after restart")
		}
		if _, err := e.client.Dial(c.Addr()); err != nil {
			t.Errorf("dial after restart: %v", err)
		}
	})
}

func TestRemoveForgetsContainer(t *testing.T) {
	e := newEnv()
	e.clk.Run(func() {
		e.pulled("img", registry.MiB)
		c, _ := e.rt.Create(Spec{Name: "c", Image: "img"})
		if err := c.Remove(); err != nil {
			t.Fatal(err)
		}
		if err := c.Remove(); err != nil {
			t.Errorf("idempotent remove: %v", err)
		}
		if e.rt.Get("c") != nil {
			t.Error("runtime still lists removed container")
		}
		// Name is reusable.
		if _, err := e.rt.Create(Spec{Name: "c", Image: "img"}); err != nil {
			t.Errorf("recreate after remove: %v", err)
		}
	})
}

func TestBackgroundRunsUntilStop(t *testing.T) {
	e := newEnv()
	e.clk.Run(func() {
		e.pulled("py", registry.MiB)
		vol := NewVolume("www")
		ticks := 0
		c, _ := e.rt.Create(Spec{
			Name:  "writer",
			Image: "py",
			Background: func(clk *vclock.Virtual, stop *vclock.Gate) {
				var tick func()
				tick = func() {
					if stop.IsOpen() {
						return
					}
					ticks++
					vol.Write("index.html", []byte(clk.Now().String()))
					clk.Post(time.Second, tick)
				}
				tick()
			},
			Mounts: []*Volume{vol},
		})
		spawned := e.clk.Spawned()
		c.Start()
		if got := e.clk.Spawned() - spawned; got != 0 {
			t.Errorf("Start spawned %d goroutines, want 0: Background runs as clock events", got)
		}
		e.clk.Sleep(5500 * time.Millisecond)
		c.Stop()
		after := ticks
		e.clk.Sleep(3 * time.Second)
		if ticks != after {
			t.Errorf("background kept running after stop (%d → %d)", after, ticks)
		}
		if after < 5 {
			t.Errorf("background ticked %d times in 5.5s, want ≥5", after)
		}
		if _, ok := vol.Read("index.html"); !ok {
			t.Error("volume missing written file")
		}
	})
}

func TestListBySelector(t *testing.T) {
	e := newEnv()
	e.clk.Run(func() {
		e.pulled("img", registry.MiB)
		e.rt.Create(Spec{Name: "a", Image: "img", Labels: map[string]string{"edge.service": "svc1", "tier": "web"}})
		e.rt.Create(Spec{Name: "b", Image: "img", Labels: map[string]string{"edge.service": "svc2"}})
		e.rt.Create(Spec{Name: "c", Image: "img"})
		if got := len(e.rt.List(map[string]string{"edge.service": "svc1"})); got != 1 {
			t.Errorf("selector match = %d, want 1", got)
		}
		if got := len(e.rt.List(nil)); got != 3 {
			t.Errorf("nil selector = %d, want 3", got)
		}
		if got := len(e.rt.List(map[string]string{"edge.service": "zzz"})); got != 0 {
			t.Errorf("no-match selector = %d, want 0", got)
		}
	})
}

func TestVolumeReadWrite(t *testing.T) {
	v := NewVolume("data")
	if _, ok := v.Read("x"); ok {
		t.Error("read of missing file succeeded")
	}
	v.Write("x", []byte("1"))
	got, ok := v.Read("x")
	if !ok || string(got) != "1" {
		t.Errorf("Read = %q, %v", got, ok)
	}
	got[0] = 'z' // caller's copy must not alias the stored file
	if again, _ := v.Read("x"); string(again) != "1" {
		t.Error("Read returned aliased data")
	}
	if len(v.Files()) != 1 {
		t.Errorf("Files = %v", v.Files())
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateCreated: "created",
		StateRunning: "running",
		StateStopped: "stopped",
		StateRemoved: "removed",
		State(99):    "state(99)",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// Property: the store's cached byte count always equals the sum of
// distinct live layers after any pull/remove sequence.
func TestStoreRefcountProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		clk := vclock.New()
		ok := true
		clk.Run(func() {
			reg := registry.New(clk, 1, registry.Private())
			st := NewStore(clk, 2, DefaultTiming())
			// Three images with overlapping layers.
			base := registry.Layer{Digest: "sha256:base", Size: 50}
			imgs := []registry.Image{
				{Ref: "i0", Layers: []registry.Layer{base, {Digest: "sha256:l0", Size: 10}}},
				{Ref: "i1", Layers: []registry.Layer{base, {Digest: "sha256:l1", Size: 20}}},
				{Ref: "i2", Layers: []registry.Layer{{Digest: "sha256:l2", Size: 30}}},
			}
			for _, im := range imgs {
				reg.Push(im)
			}
			for _, op := range ops {
				im := imgs[int(op)%3]
				if op&0x80 != 0 && st.HasImage(im.Ref) {
					st.RemoveImage(im.Ref)
				} else if !st.HasImage(im.Ref) {
					st.Pull(reg, im.Ref)
				}
			}
			// Recompute expected bytes from live images.
			live := make(map[registry.Digest]int64)
			for _, im := range imgs {
				if st.HasImage(im.Ref) {
					for _, l := range im.Layers {
						live[l.Digest] = l.Size
					}
				}
			}
			var want int64
			for _, s := range live {
				want += s
			}
			if st.CachedBytes() != want {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
