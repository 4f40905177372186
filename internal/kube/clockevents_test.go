package kube

import (
	"reflect"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// TestKubeSpawnsPerDeployment pins how many goroutines the control plane
// starts: watch deliveries, idle scheduler ticks and container
// initialisation are clock events, so only the steps that wait on
// virtual time with state on their stack get a goroutine.
func TestKubeSpawnsPerDeployment(t *testing.T) {
	// One deployment with a Service, scaled 0 → 1 until its endpoint is
	// ready, starts:
	//   - the scheduler's cycle that binds the pod (API calls wait),
	//   - the kubelet's runPod (sandbox, image, containers, probes),
	//   - the container's serve loop (blocks in Accept).
	// With a goroutine per watch delivery, per scheduler tick and per
	// container initialisation, the same deployment started 57, and the
	// idle 10 s before it 78 (a tick every ≈ 250 ms for each of the
	// cluster's two schedulers).
	const perDeployment = 3
	clk := vclock.New()
	clk.Run(func() {
		env := newKubeEnv(t, clk, 1)
		before := clk.Spawned()
		clk.Sleep(10 * time.Second)
		if got := clk.Spawned() - before; got != 0 {
			t.Errorf("10 s of an idle cluster started %d goroutines, want 0", got)
		}

		before = clk.Spawned()
		env.cluster.CreateDeployment(webDeployment("svc", 0))
		env.cluster.CreateService(webService("svc"))
		if err := env.cluster.Scale("svc", 1); err != nil {
			t.Fatal(err)
		}
		if _, ok := env.cluster.WaitReadyEndpoint("svc", 100*time.Millisecond, 30*time.Second); !ok {
			t.Fatal("no ready endpoint after scale up")
		}
		if got := clk.Spawned() - before; got != perDeployment {
			t.Errorf("one deployment started %d goroutines, want %d", got, perDeployment)
		}
	})
}

// TestStoreNeverEditsStoredObjects holds the copy-on-write contract the
// package's copy-free readers rely on: an object, once stored and handed
// out in a watch event, never changes.
func TestStoreNeverEditsStoredObjects(t *testing.T) {
	type seen struct {
		obj, snapshot Object
	}
	var events []seen
	clk := vclock.New()
	clk.Run(func() {
		env := newKubeEnv(t, clk, 1)
		api := env.cluster.API()
		for _, kind := range []string{KindDeployment, KindReplicaSet, KindPod, KindService, KindEndpoints, KindNode} {
			api.watchFunc(kind, func(ev Event) {
				events = append(events, seen{ev.Object, ev.Object.DeepCopy()})
			})
		}
		env.cluster.CreateDeployment(webDeployment("svc", 0))
		env.cluster.CreateService(webService("svc"))
		env.cluster.Scale("svc", 2)
		waitEndpoints(t, clk, env, "svc", 2, time.Minute)
		env.cluster.Scale("svc", 0)
		waitEndpoints(t, clk, env, "svc", 0, time.Minute)

		// Editing what List returns leaves the store alone.
		listed := api.List(KindDeployment, nil)
		listed[0].(*Deployment).Spec.Replicas = 99
		listed[0].Meta().Labels["app"] = "edited"
		if again, _ := api.Get(KindDeployment, "svc"); again.(*Deployment).Spec.Replicas != 0 || again.Meta().Labels["app"] != "svc" {
			t.Error("List returned an aliased object")
		}

		env.cluster.DeleteDeployment("svc")
		env.cluster.DeleteService("svc")
		clk.Sleep(5 * time.Second)
	})
	if len(events) < 20 {
		t.Fatalf("only %d watch events recorded", len(events))
	}
	for i, e := range events {
		if !reflect.DeepEqual(e.obj, e.snapshot) {
			t.Errorf("event %d: stored %s %q changed after it was handed out:\n got %+v\nwant %+v",
				i, e.obj.Kind(), e.obj.Meta().Name, e.obj, e.snapshot)
		}
	}
}

// TestWatchStopWithDeliveryInFlight stops a watch while an event for it
// is still on its way: the delivery is dropped, not sent to a closed
// mailbox.
func TestWatchStopWithDeliveryInFlight(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		api := NewAPI(clk, 1, DefaultTiming())
		w := api.Watch(KindDeployment)
		if err := api.Create(webDeployment("a", 0)); err != nil {
			t.Fatal(err)
		}
		w.Stop() // the Added event is due WatchLatency after the Create
		clk.Sleep(time.Second)
		if ev, ok := w.RecvTimeout(time.Second); ok {
			t.Errorf("event %+v delivered after Stop", ev)
		}
	})
}
