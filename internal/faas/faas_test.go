package faas

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/containerd"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/registry"
	"github.com/c3lab/transparentedge/internal/vclock"
)

type mapResolver map[string]containerd.AppModel

func (m mapResolver) Resolve(image string) (containerd.AppModel, error) {
	model, ok := m[image]
	if !ok {
		return containerd.AppModel{}, fmt.Errorf("unknown module %q", image)
	}
	return model, nil
}

type faasEnv struct {
	clk    *vclock.Virtual
	rt     *Runtime
	cl     *Cluster
	client *netem.Host
	reg    *registry.Registry
}

func newFaasEnv(clk *vclock.Virtual) *faasEnv {
	n := netem.NewNetwork(clk, 1)
	node := n.NewHost("edge", netem.ParseIP("10.0.0.2"))
	client := n.NewHost("client", netem.ParseIP("192.168.1.10"))
	n.Connect(node.NIC(), client.NIC(), netem.LinkConfig{Latency: time.Millisecond})
	reg := registry.New(clk, 2, registry.Private())
	reg.Push(registry.Image{Ref: "fn/echo.wasm", Layers: []registry.Layer{
		{Digest: "sha256:echo-wasm", Size: 2 * registry.MiB},
	}})
	rt := NewRuntime(clk, 3, node, DefaultTiming())
	resolver := mapResolver{"fn/echo.wasm": {
		Port: 80,
		Instantiate: func(map[string]*containerd.Volume) containerd.AppInstance {
			return containerd.AppInstance{Handler: containerd.HandlerFunc(
				func(req []byte) []byte {
					return append([]byte("wasm:"), req...)
				})}
		},
	}}
	cl := NewCluster("edge-faas", rt, reg, resolver, cluster.Location{Tier: 0, Latency: time.Millisecond})
	return &faasEnv{clk: clk, rt: rt, cl: cl, client: client, reg: reg}
}

func echoSpec() cluster.Spec {
	return cluster.Spec{
		Name:        "fn-echo",
		Containers:  []cluster.ContainerDef{{Name: "fn", Image: "fn/echo.wasm", Port: 80}},
		ServicePort: 80,
	}
}

func TestFetchAndInstantiate(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newFaasEnv(clk)
		if e.rt.HasModule("fn/echo.wasm") {
			t.Error("module cached before fetch")
		}
		if err := e.rt.Fetch(e.reg, "fn/echo.wasm"); err != nil {
			t.Fatal(err)
		}
		if !e.rt.HasModule("fn/echo.wasm") {
			t.Error("module missing after fetch")
		}
		// Cached fetch is free.
		start := clk.Now()
		e.rt.Fetch(e.reg, "fn/echo.wasm")
		if clk.Since(start) != 0 {
			t.Error("cached fetch cost time")
		}
		start = clk.Now()
		inst, err := e.rt.Instantiate(InstanceSpec{
			Name:   "echo-1",
			Module: "fn/echo.wasm",
			Handler: containerd.HandlerFunc(func(req []byte) []byte {
				return req
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		coldStart := clk.Since(start)
		// The headline: cold start in single-digit milliseconds.
		if coldStart > 10*time.Millisecond {
			t.Errorf("wasm cold start = %v, want ≈4ms", coldStart)
		}
		conn, err := e.client.Dial(inst.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Send([]byte("x"))
		if resp, err := conn.Recv(); err != nil || string(resp) != "x" {
			t.Errorf("resp = %q, %v", resp, err)
		}
	})
}

func TestInstantiateErrors(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newFaasEnv(clk)
		h := containerd.HandlerFunc(func(req []byte) []byte { return req })
		if _, err := e.rt.Instantiate(InstanceSpec{Name: "x", Module: "fn/echo.wasm", Handler: h}); err == nil {
			t.Error("instantiate without fetched module succeeded")
		}
		e.rt.Fetch(e.reg, "fn/echo.wasm")
		if _, err := e.rt.Instantiate(InstanceSpec{Name: "x", Module: "fn/echo.wasm"}); err == nil {
			t.Error("instantiate without handler succeeded")
		}
		if _, err := e.rt.Instantiate(InstanceSpec{Name: "x", Module: "fn/echo.wasm", Handler: h}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.rt.Instantiate(InstanceSpec{Name: "x", Module: "fn/echo.wasm", Handler: h}); err == nil {
			t.Error("duplicate instance name accepted")
		}
		if err := e.rt.Fetch(e.reg, "fn/ghost.wasm"); err == nil {
			t.Error("fetch of unpublished module succeeded")
		}
	})
}

func TestStopClosesPortAndFreesName(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newFaasEnv(clk)
		e.rt.Fetch(e.reg, "fn/echo.wasm")
		h := containerd.HandlerFunc(func(req []byte) []byte { return req })
		inst, _ := e.rt.Instantiate(InstanceSpec{Name: "x", Module: "fn/echo.wasm", Handler: h})
		addr := inst.Addr()
		inst.Stop()
		inst.Stop() // idempotent
		if _, err := e.client.Dial(addr); err == nil {
			t.Error("stopped instance still accepts connections")
		}
		if e.rt.Get("x") != nil {
			t.Error("stopped instance still registered")
		}
		if _, err := e.rt.Instantiate(InstanceSpec{Name: "x", Module: "fn/echo.wasm", Handler: h}); err != nil {
			t.Errorf("name not freed: %v", err)
		}
	})
}

// delayEcho answers its request after d of processing time.
type delayEcho struct{ d time.Duration }

func (h delayEcho) Delay([]byte) time.Duration { return h.d }
func (delayEcho) Respond(req []byte) []byte    { return req }

// TestRequestStages: a request pays the per-call overhead, then the
// handler's own delay, exactly; an isolate stopped during the overhead
// resets the connection instead of answering.
func TestRequestStages(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newFaasEnv(clk)
		e.rt.timing.CallOverhead, e.rt.timing.JitterFrac = 10*time.Millisecond, 0
		e.rt.Fetch(e.reg, "fn/echo.wasm")
		inst, err := e.rt.Instantiate(InstanceSpec{Name: "x", Module: "fn/echo.wasm", Handler: delayEcho{3 * time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := e.client.Dial(inst.Addr())
		if err != nil {
			t.Fatal(err)
		}
		start := clk.Now()
		conn.Send([]byte("x"))
		if resp, err := conn.Recv(); err != nil || string(resp) != "x" {
			t.Fatalf("got %q, %v", resp, err)
		}
		// 1 ms there, 10 ms overhead, 3 ms handler, 1 ms back.
		if got, want := clk.Since(start), 15*time.Millisecond; got != want {
			t.Errorf("request took %v, want %v", got, want)
		}

		conn.Send([]byte("y"))
		clk.Sleep(5 * time.Millisecond) // the request is in its overhead
		inst.Stop()
		if resp, err := conn.Recv(); !errors.Is(err, netem.ErrReset) {
			t.Errorf("request to an isolate stopped during its overhead: got %q, %v; want ErrReset", resp, err)
		}
	})
}

func TestClusterPhases(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newFaasEnv(clk)
		spec := echoSpec()
		if e.cl.HasImages(spec) {
			t.Error("module cached before pull")
		}
		if err := e.cl.Pull(spec); err != nil {
			t.Fatal(err)
		}
		if err := e.cl.Create(spec); err != nil {
			t.Fatal(err)
		}
		if err := e.cl.Create(spec); err == nil {
			t.Error("duplicate create accepted")
		}
		if !e.cl.Created(spec.Name) {
			t.Error("Created = false")
		}
		if got := e.cl.Instances(spec.Name); len(got) != 0 {
			t.Error("instances before scale-up")
		}
		start := clk.Now()
		if err := e.cl.ScaleUp(spec.Name); err != nil {
			t.Fatal(err)
		}
		scaleUp := clk.Since(start)
		if scaleUp > 15*time.Millisecond {
			t.Errorf("serverless scale-up = %v, want ms", scaleUp)
		}
		insts := e.cl.Instances(spec.Name)
		if len(insts) != 1 || insts[0].Cluster != "edge-faas" {
			t.Fatalf("instances = %v", insts)
		}
		conn, err := e.client.Dial(insts[0].Addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Send([]byte("hi"))
		if resp, err := conn.Recv(); err != nil || string(resp) != "wasm:hi" {
			t.Errorf("resp = %q, %v", resp, err)
		}
		// Idempotent scale-up.
		if err := e.cl.ScaleUp(spec.Name); err != nil {
			t.Errorf("re-scale-up: %v", err)
		}
		if err := e.cl.ScaleDown(spec.Name); err != nil {
			t.Fatal(err)
		}
		if len(e.cl.Instances(spec.Name)) != 0 {
			t.Error("instance survives scale-down")
		}
		if err := e.cl.Remove(spec.Name); err != nil {
			t.Fatal(err)
		}
		if e.cl.Created(spec.Name) {
			t.Error("created after remove")
		}
		if err := e.cl.DeleteImages(spec); err != nil || e.cl.HasImages(spec) {
			t.Error("modules survive deletion")
		}
	})
}

func TestClusterRejectsMultiContainer(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newFaasEnv(clk)
		spec := echoSpec()
		spec.Containers = append(spec.Containers, cluster.ContainerDef{Name: "side", Image: "fn/echo.wasm"})
		if err := e.cl.Create(spec); err == nil {
			t.Error("multi-container serverless spec accepted")
		}
	})
}

func TestClusterErrorsOnUnknownService(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newFaasEnv(clk)
		if err := e.cl.ScaleUp("ghost"); err == nil {
			t.Error("scale-up of unknown service succeeded")
		}
		if err := e.cl.Remove("ghost"); err == nil {
			t.Error("remove of unknown service succeeded")
		}
		if err := e.cl.ScaleDown("ghost"); err != nil {
			t.Errorf("scale-down should be a no-op: %v", err)
		}
	})
}
