package catalog

import (
	"strings"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/containerd"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/registry"
	"github.com/c3lab/transparentedge/internal/vclock"
	"github.com/c3lab/transparentedge/internal/yaml"
)

func TestTableIShape(t *testing.T) {
	services := Services()
	if len(services) != 4 {
		t.Fatalf("catalog has %d services, Table I lists 4", len(services))
	}
	want := []struct {
		key        string
		sizeLow    int64
		sizeHigh   int64
		layers     int
		containers int
		method     string
	}{
		{"asm", 6000, 6500, 1, 1, "GET"},                                 // 6.18 KiB / 1
		{"nginx", 135 * registry.MiB, 135 * registry.MiB, 6, 1, "GET"},   // 135 MiB / 6
		{"resnet", 308 * registry.MiB, 308 * registry.MiB, 9, 1, "POST"}, // 308 MiB / 9
		{"nginxpy", 181 * registry.MiB, 181 * registry.MiB, 7, 2, "GET"}, // 181 MiB / 7
	}
	for i, w := range want {
		s := services[i]
		if s.Key != w.key {
			t.Errorf("row %d key = %q, want %q", i, s.Key, w.key)
		}
		if size := s.TotalImageBytes(); size < w.sizeLow || size > w.sizeHigh {
			t.Errorf("%s size = %d, want in [%d,%d]", s.Key, size, w.sizeLow, w.sizeHigh)
		}
		if got := s.TotalLayers(); got != w.layers {
			t.Errorf("%s layers = %d, want %d", s.Key, got, w.layers)
		}
		if s.Containers != w.containers {
			t.Errorf("%s containers = %d, want %d", s.Key, s.Containers, w.containers)
		}
		if s.HTTPMethod != w.method {
			t.Errorf("%s method = %q, want %q", s.Key, s.HTTPMethod, w.method)
		}
	}
}

func TestResNetPayloadIs83KiB(t *testing.T) {
	s, err := ByKey("resnet")
	if err != nil {
		t.Fatal(err)
	}
	if s.RequestPayload != 83*1024 {
		t.Errorf("payload = %d, want 83 KiB", s.RequestPayload)
	}
	if s.RegistryHost != RegistryGCR {
		t.Error("ResNet must come from GCR")
	}
}

func TestByKeyUnknown(t *testing.T) {
	if _, err := ByKey("zzz"); err == nil {
		t.Error("unknown key resolved")
	}
}

func TestDefinitionsAreValidLeanYAML(t *testing.T) {
	for _, s := range Services() {
		v, err := yaml.Unmarshal(s.Definition)
		if err != nil {
			t.Errorf("%s definition does not parse: %v", s.Key, err)
			continue
		}
		m := v.(map[string]any)
		if m["kind"] != "Deployment" {
			t.Errorf("%s definition kind = %v", s.Key, m["kind"])
		}
		// Lean: the developer writes no name, labels, or replica count;
		// the annotation engine supplies them.
		if meta, ok := m["metadata"]; ok {
			if mm, ok := meta.(map[string]any); ok {
				if _, named := mm["name"]; named {
					t.Errorf("%s definition already carries a name", s.Key)
				}
			}
		}
		if !strings.Contains(s.Definition, "image:") {
			t.Errorf("%s definition is missing the one mandatory field", s.Key)
		}
	}
}

func TestNginxPyReusesNginxLayers(t *testing.T) {
	nginx, _ := ByKey("nginx")
	combo, _ := ByKey("nginxpy")
	nginxDigests := make(map[registry.Digest]bool)
	for _, l := range nginx.Images[0].Layers {
		nginxDigests[l.Digest] = true
	}
	shared := 0
	for _, im := range combo.Images {
		for _, l := range im.Layers {
			if nginxDigests[l.Digest] {
				shared++
			}
		}
	}
	if shared != len(nginxDigests) {
		t.Errorf("Nginx+Py shares %d/%d nginx layers; dedup broken", shared, len(nginxDigests))
	}
}

func TestPushAllRouting(t *testing.T) {
	clk := vclock.New()
	hub := registry.New(clk, 1, registry.DockerHub())
	gcr := registry.New(clk, 2, registry.GCR())
	PushAll(hub, gcr)
	if !hub.Has(ImageNginx) || !hub.Has(ImageAsm) || !hub.Has(ImagePy) {
		t.Error("hub images missing")
	}
	if !gcr.Has(ImageResNet) {
		t.Error("GCR image missing")
	}
	if hub.Has(ImageResNet) {
		t.Error("ResNet leaked onto Docker Hub")
	}
	private := registry.New(clk, 3, registry.Private())
	PushAllTo(private)
	for _, ref := range []string{ImageNginx, ImageAsm, ImagePy, ImageResNet} {
		if !private.Has(ref) {
			t.Errorf("private registry missing %s", ref)
		}
	}
}

func TestResolverCoversAllImagesAndRejectsOthers(t *testing.T) {
	r := Resolver()
	for _, s := range Services() {
		for _, im := range s.Images {
			if _, err := r.Resolve(im.Ref); err != nil {
				t.Errorf("Resolve(%s): %v", im.Ref, err)
			}
		}
	}
	if _, err := r.Resolve("unknown:latest"); err == nil {
		t.Error("unknown image resolved")
	}
}

func TestHandlerEdgeBehaviours(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		// Nginx without the shared volume serves its static page.
		model, _ := Resolver().Resolve(ImageNginx)
		inst := model.Instantiate(nil)
		resp := inst.Handler.Respond([]byte("GET /"))
		if len(resp) != 612 {
			t.Errorf("nginx static page = %d bytes, want 612 (Table I-ish default page)", len(resp))
		}
		// Nginx with an empty volume reports the missing index.html.
		vols := map[string]*containerd.Volume{"www": containerd.NewVolume("www")}
		inst = model.Instantiate(vols)
		resp = inst.Handler.Respond([]byte("GET /"))
		if !strings.Contains(string(resp), "503") {
			t.Errorf("empty-volume response = %q", resp[:24])
		}
		// The env-writer tolerates a missing volume (exits immediately).
		py, _ := Resolver().Resolve(ImagePy)
		bg := py.Instantiate(nil)
		if bg.Background == nil {
			t.Fatal("env-writer has no background process")
		}
		stop := vclock.NewGate()
		bg.Background(clk, stop) // must return, not hang
	})
}

func TestWasmModuleRefShape(t *testing.T) {
	if WasmModuleRef("nginx") != "fn/nginx.wasm" {
		t.Errorf("module ref = %q", WasmModuleRef("nginx"))
	}
	if _, err := WasmResolver().Resolve("fn/ghost.wasm"); err == nil {
		t.Error("unknown module resolved")
	}
}

// runService boots one catalog service on a containerd runtime and
// returns its endpoint plus container handles.
func runService(t *testing.T, clk *vclock.Virtual, key string) (addr netem.HostPort, client *netem.Host) {
	t.Helper()
	n := netem.NewNetwork(clk, 1)
	host := n.NewHost("egs", netem.ParseIP("10.0.0.2"))
	client = n.NewHost("client", netem.ParseIP("192.168.1.10"))
	n.Connect(host.NIC(), client.NIC(), netem.LinkConfig{Latency: time.Millisecond})
	rt := containerd.NewRuntime(clk, 2, host, containerd.DefaultTiming())
	reg := registry.New(clk, 3, registry.Private())
	PushAllTo(reg)
	svc, err := ByKey(key)
	if err != nil {
		t.Fatal(err)
	}
	vols := map[string]*containerd.Volume{"www": containerd.NewVolume("www")}
	var serving *containerd.Container
	for i, im := range svc.Images {
		if _, err := rt.Pull(reg, im.Ref); err != nil {
			t.Fatal(err)
		}
		model, err := Resolver().Resolve(im.Ref)
		if err != nil {
			t.Fatal(err)
		}
		spec := model.BuildSpec(key+"-"+string(rune('a'+i)), im.Ref, nil, vols)
		ctr, err := rt.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctr.Start(); err != nil {
			t.Fatal(err)
		}
		if model.Port != 0 && serving == nil {
			serving = ctr
		}
	}
	if serving == nil {
		t.Fatal("no serving container")
	}
	if !serving.WaitReady(30 * time.Second) {
		t.Fatal("service never ready")
	}
	return serving.Addr(), client
}

func TestAsmAndNginxServeQuickly(t *testing.T) {
	for _, key := range []string{"asm", "nginx"} {
		clk := vclock.New()
		clk.Run(func() {
			addr, client := runService(t, clk, key)
			conn, err := client.Dial(addr)
			if err != nil {
				t.Fatalf("%s dial: %v", key, err)
			}
			start := clk.Now()
			conn.Send([]byte("GET / HTTP/1.1"))
			resp, err := conn.Recv()
			if err != nil || len(resp) == 0 {
				t.Fatalf("%s: %q, %v", key, resp, err)
			}
			// Warm request on a local link: around a millisecond
			// (Fig. 16's short-response services).
			if d := clk.Since(start); d > 20*time.Millisecond {
				t.Errorf("%s warm request = %v, want ≈ms", key, d)
			}
		})
	}
}

func TestResNetInferenceSlow(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		addr, client := runService(t, clk, "resnet")
		conn, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		start := clk.Now()
		conn.Send(make([]byte, 83*1024)) // the cat picture
		resp, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(resp), "predictions") {
			t.Errorf("resp = %q", resp[:40])
		}
		// Fig. 16: ResNet requests take significantly longer than the
		// ≈1 ms static services.
		if d := clk.Since(start); d < 20*time.Millisecond {
			t.Errorf("resnet request = %v, want ≫1ms", d)
		}
	})
}

func TestNginxPyServesLiveVolumeContent(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		addr, client := runService(t, clk, "nginxpy")
		clk.Sleep(3 * time.Second) // let env-writer tick
		conn, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Send([]byte("GET /index.html"))
		resp, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(resp), "env-writer tick") {
			t.Errorf("index.html not written by sidecar: %q", resp)
		}
		// The page updates once per second.
		clk.Sleep(2 * time.Second)
		conn.Send([]byte("GET /index.html"))
		resp2, _ := conn.Recv()
		if string(resp) == string(resp2) {
			t.Error("index.html static; env-writer not ticking")
		}
	})
}

// TestByKeyAllocs holds ByKey to zero allocations: the catalog is built
// once, and a lookup copies a row out of it.
func TestByKeyAllocs(t *testing.T) {
	var s Service
	if a := testing.AllocsPerRun(100, func() { s, _ = ByKey("nginxpy") }); a != 0 {
		t.Errorf("ByKey: %v allocs/op, want 0", a)
	}
	if s.Key != "nginxpy" {
		t.Fatalf("ByKey(nginxpy) = %q", s.Key)
	}
}

// TestServicesIsACopy: the catalog is shared, so a caller that edits
// the rows Services returned leaves the next caller's rows alone.
func TestServicesIsACopy(t *testing.T) {
	rows := Services()
	rows[0].Key = "edited"
	rows[1] = Service{}
	if s, err := ByKey("asm"); err != nil || s.Key != "asm" {
		t.Errorf("ByKey(asm) after editing a Services row = %q, %v", s.Key, err)
	}
	if again := Services(); again[0].Key != "asm" || again[1].Key != "nginx" {
		t.Errorf("Services after editing an earlier result starts %q, %q", again[0].Key, again[1].Key)
	}
}
