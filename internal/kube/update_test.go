package kube

import (
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// TestTemplateChangeRecreatesPods updates a deployment's pod template:
// the Recreate strategy must replace the running pods with ones built
// from the new template.
func TestTemplateChangeRecreatesPods(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		env := newKubeEnv(t, clk, 1)
		env.cluster.CreateDeployment(webDeployment("svc", 1))
		env.cluster.CreateService(webService("svc"))
		waitEndpoints(t, clk, env, "svc", 1, time.Minute)

		// Switch the container image (web → sidecar has no port; use a
		// second web-like image instead: change the container name).
		found, err := env.cluster.API().Mutate(KindDeployment, "svc", func(obj Object) bool {
			// The slice is the stored deployment's: replace it.
			d := obj.(*Deployment)
			containers := slices.Clone(d.Spec.Template.Containers)
			containers[0].Name = "web-v2"
			d.Spec.Template.Containers = containers
			return true
		})
		if err != nil || !found {
			t.Fatalf("mutate: %v %v", found, err)
		}
		waitCondition(t, clk, time.Minute, func() bool {
			pods := env.cluster.API().List(KindPod, nil)
			if len(pods) != 1 {
				return false
			}
			p := pods[0].(*Pod)
			return p.Status.Ready && p.Spec.Containers[0].Name == "web-v2"
		})
	})
}

// TestDeploymentStatusPropagation checks the status chain: pod ready →
// ReplicaSet status → Deployment status.
func TestDeploymentStatusPropagation(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		env := newKubeEnv(t, clk, 1)
		env.cluster.CreateDeployment(webDeployment("svc", 2))
		env.cluster.CreateService(webService("svc"))
		waitCondition(t, clk, time.Minute, func() bool {
			obj, ok := env.cluster.API().Get(KindDeployment, "svc")
			if !ok {
				return false
			}
			d := obj.(*Deployment)
			return d.Status.Replicas == 2 && d.Status.ReadyReplicas == 2
		})
		// Scale down: the status follows.
		env.cluster.Scale("svc", 1)
		waitCondition(t, clk, time.Minute, func() bool {
			obj, _ := env.cluster.API().Get(KindDeployment, "svc")
			d := obj.(*Deployment)
			return d.Status.Replicas == 1 && d.Status.ReadyReplicas == 1
		})
	})
}

// TestUpdateConflictDetection exercises the optimistic-concurrency path
// of the API server directly.
func TestUpdateConflictDetection(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		api := NewAPI(clk, 1, DefaultTiming())
		d := webDeployment("svc", 0)
		api.Create(d)
		stale := d.DeepCopy().(*Deployment)
		d.Spec.Replicas = 1
		if err := api.Update(d); err != nil {
			t.Fatal(err)
		}
		stale.Spec.Replicas = 5
		if err := api.Update(stale); err == nil {
			t.Fatal("stale update accepted")
		}
		// The winning write survived.
		cur, _ := api.Get(KindDeployment, "svc")
		if cur.(*Deployment).Spec.Replicas != 1 {
			t.Errorf("replicas = %d, want 1", cur.(*Deployment).Spec.Replicas)
		}
	})
}

// TestMutateRetriesUnderContention hammers one object from many
// goroutines; Mutate must linearize all increments.
func TestMutateRetriesUnderContention(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		api := NewAPI(clk, 1, DefaultTiming())
		api.Create(&Node{ObjectMeta: ObjectMeta{Name: "n"}, Spec: NodeSpec{Capacity: 1000}})
		var g vclock.Group
		const writers, each = 8, 10
		for w := 0; w < writers; w++ {
			g.Go(clk, func() {
				for i := 0; i < each; i++ {
					api.Mutate(KindNode, "n", func(obj Object) bool {
						obj.(*Node).Status.Pods++
						return true
					})
				}
			})
		}
		g.Wait(clk)
		obj, _ := api.Get(KindNode, "n")
		if got := obj.(*Node).Status.Pods; got != writers*each {
			t.Errorf("pods = %d, want %d (lost updates)", got, writers*each)
		}
	})
}

// TestWatchStopDuringDeliveries stops a watch while events are in
// flight; no panic, no goroutine wedge.
func TestWatchStopDuringDeliveries(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		api := NewAPI(clk, 1, DefaultTiming())
		w := api.Watch(KindDeployment)
		var g vclock.Group
		g.Go(clk, func() {
			for i := 0; i < 20; i++ {
				api.Create(webDeployment(string(rune('a'+i)), 0))
			}
		})
		// Stop mid-stream: in-flight deliveries hit a closed mailbox and
		// are dropped silently.
		clk.Sleep(30 * time.Millisecond)
		w.Stop()
		g.Wait(clk)
		clk.Sleep(time.Second)
		if _, ok := w.RecvTimeout(time.Second); ok {
			t.Error("event delivered after Stop")
		}
	})
}

// TestKeyQueueCoalesces checks the controller work queue's dedup
// invariant: N adds of the same key while queued yield one Get, a key
// added again after its Get is queued again, and distinct keys leave in
// the order they were added.
func TestKeyQueueCoalesces(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		q := newKeyQueue(clk)
		for i := 0; i < 100; i++ {
			q.Add("same")
		}
		q.Add("other")
		if got := q.Get(); got != "same" {
			t.Errorf("Get = %q", got)
		}
		if got := q.Get(); got != "other" {
			t.Errorf("Get = %q (duplicates not coalesced)", got)
		}
		// Re-adding after Get enqueues again.
		q.Add("same")
		if got := q.Get(); got != "same" {
			t.Errorf("Get = %q", got)
		}
		// A key got and added again is queued again, behind the keys
		// added before it.
		q.Add("a")
		q.Add("b")
		if got := q.Get(); got != "a" {
			t.Errorf("Get = %q, want a", got)
		}
		q.Add("a")
		q.Add("b")
		for _, want := range []string{"b", "a"} {
			if got := q.Get(); got != want {
				t.Errorf("Get = %q, want %q", got, want)
			}
		}
		// Distinct keys come out in Add order.
		keys := []string{"k3", "k1", "k4", "k2", "k0"}
		for _, k := range keys {
			q.Add(k)
		}
		for _, want := range keys {
			if got := q.Get(); got != want {
				t.Errorf("Get = %q, want %q (not FIFO)", got, want)
			}
		}
	})
}

// TestKeyQueueBlocksUntilAdd verifies the blocking Get.
func TestKeyQueueBlocksUntilAdd(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		q := newKeyQueue(clk)
		var got string
		var mu sync.Mutex
		var g vclock.Group
		g.Go(clk, func() {
			k := q.Get()
			mu.Lock()
			got = k
			mu.Unlock()
		})
		clk.Sleep(time.Second)
		mu.Lock()
		if got != "" {
			t.Error("Get returned before Add")
		}
		mu.Unlock()
		q.Add("x")
		g.Wait(clk)
		if got != "x" {
			t.Errorf("got = %q", got)
		}
	})
}

// TestMutateAllocs: Mutate copies the object and shares its maps and
// slices, so changing a counter costs the copy alone.
func TestMutateAllocs(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		api := NewAPI(clk, 1, DefaultTiming())
		if err := api.Create(webDeployment("svc", 0)); err != nil {
			t.Fatal(err)
		}
		replicas := 0
		n := testing.AllocsPerRun(100, func() {
			replicas++
			api.Mutate(KindDeployment, "svc", func(obj Object) bool {
				obj.(*Deployment).Spec.Replicas = replicas
				return true
			})
		})
		t.Logf("%.1f allocations per Mutate", n)
		if n > 2 {
			t.Errorf("Mutate allocates %.1f times, want at most 2", n)
		}
	})
}
