package kube

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// keyQueue is a deduplicating work queue, the coalescing mechanism of
// real controllers: a key added many times while queued is reconciled
// once. Without it, a deployment burst (Fig. 10: up to eight per
// second) would serialize one reconcile per watch event. It is a set of
// pending keys in front of a mailbox that holds them in Add order.
type keyQueue struct {
	clk   *vclock.Virtual
	mu    sync.Mutex
	set   map[string]bool
	order vclock.Mailbox[string]
}

func newKeyQueue(clk *vclock.Virtual) *keyQueue {
	q := &keyQueue{clk: clk, set: make(map[string]bool)}
	q.order.Init(clk)
	return q
}

// Add enqueues key unless it is empty (no owner) or already pending.
// The send stays under q.mu so the mailbox holds keys in Add order.
func (q *keyQueue) Add(key string) {
	if key == "" {
		return
	}
	q.mu.Lock()
	if !q.set[key] {
		q.set[key] = true
		q.order.Send(key)
	}
	q.mu.Unlock()
}

// Get blocks until a key is pending and removes it.
func (q *keyQueue) Get() string {
	key, _ := q.order.Recv()
	q.mu.Lock()
	delete(q.set, key)
	q.mu.Unlock()
	return key
}

// runWorker processes keys forever on a clock goroutine.
func (q *keyQueue) runWorker(reconcile func(key string)) {
	q.clk.Go(func() {
		for {
			reconcile(q.Get())
		}
	})
}

// controllerBase bundles what every control loop needs.
type controllerBase struct {
	api *API
	clk *vclock.Virtual
	rng *vclock.Rand
}

func (c *controllerBase) work() {
	c.clk.Sleep(c.rng.Jitter(c.api.timing.ControllerWork, c.api.timing.JitterFrac))
}

// rsNameFor derives the ReplicaSet name owned by a deployment.
func rsNameFor(deployment string) string { return deployment + "-rs" }

// deploymentController reconciles Deployments into ReplicaSets and
// aggregates status back up.
type deploymentController struct {
	controllerBase
}

func startDeploymentController(api *API, seed int64) {
	c := &deploymentController{controllerBase{api: api, clk: api.clk, rng: vclock.NewRand(seed)}}
	queue := newKeyQueue(api.clk)
	api.watchFunc(KindDeployment, func(ev Event) { queue.Add(ev.Object.Meta().Name) })
	api.watchFunc(KindReplicaSet, func(ev Event) { queue.Add(ev.Object.Meta().OwnerName) })
	queue.runWorker(c.reconcile)
}

func (c *deploymentController) reconcile(name string) {
	obj, ok := c.api.get(KindDeployment, name)
	if !ok {
		// Deployment gone: reap the owned ReplicaSet.
		c.work()
		c.api.Delete(KindReplicaSet, rsNameFor(name))
		return
	}
	d := obj.(*Deployment)
	c.work()

	rsName := rsNameFor(d.Name)
	cur, exists := c.api.get(KindReplicaSet, rsName)
	if !exists {
		// Create stores a copy, so the new object may share d's maps.
		rs := &ReplicaSet{
			ObjectMeta: ObjectMeta{
				Name:      rsName,
				Labels:    d.Spec.Template.Labels,
				OwnerName: d.Name,
			},
			Spec: ReplicaSetSpec{
				Replicas: d.Spec.Replicas,
				Selector: d.Spec.Selector,
				Template: d.Spec.Template,
			},
		}
		c.api.Create(rs)
		return
	}
	rs := cur.(*ReplicaSet)
	if !templatesEqual(rs.Spec.Template, d.Spec.Template) {
		// Template change: Recreate strategy — delete the ReplicaSet
		// (its pods are reaped) and stamp out a fresh one on the next
		// reconcile. Edge services are stateless scale-from-zero
		// workloads, so Recreate matches their operational model.
		c.api.Delete(KindReplicaSet, rsName)
		c.reconcile(name)
		return
	}
	if rs.Spec.Replicas != d.Spec.Replicas {
		c.api.Mutate(KindReplicaSet, rsName, func(obj Object) bool {
			live := obj.(*ReplicaSet)
			if live.Spec.Replicas == d.Spec.Replicas {
				return false
			}
			live.Spec.Replicas = d.Spec.Replicas
			return true
		})
		return
	}
	// Surface observed counts on the deployment.
	c.api.Mutate(KindDeployment, d.Name, func(obj Object) bool {
		live := obj.(*Deployment)
		if live.Status.Replicas == rs.Status.Replicas && live.Status.ReadyReplicas == rs.Status.ReadyReplicas {
			return false
		}
		live.Status.Replicas = rs.Status.Replicas
		live.Status.ReadyReplicas = rs.Status.ReadyReplicas
		return true
	})
}

// templatesEqual compares the fields that force pod replacement.
func templatesEqual(a, b PodTemplate) bool {
	if len(a.Containers) != len(b.Containers) || a.SchedulerName != b.SchedulerName {
		return false
	}
	for i := range a.Containers {
		if a.Containers[i] != b.Containers[i] {
			return false
		}
	}
	if len(a.Labels) != len(b.Labels) {
		return false
	}
	for k, v := range a.Labels {
		if b.Labels[k] != v {
			return false
		}
	}
	return true
}

// replicaSetController stamps out and reaps Pods for ReplicaSets.
type replicaSetController struct {
	controllerBase
}

func startReplicaSetController(api *API, seed int64) {
	c := &replicaSetController{controllerBase{api: api, clk: api.clk, rng: vclock.NewRand(seed)}}
	queue := newKeyQueue(api.clk)
	api.watchFunc(KindReplicaSet, func(ev Event) { queue.Add(ev.Object.Meta().Name) })
	api.watchFunc(KindPod, func(ev Event) { queue.Add(ev.Object.Meta().OwnerName) })
	queue.runWorker(c.reconcile)
}

func (c *replicaSetController) ownedPods(rsName string) []*Pod {
	owned := c.api.listFunc(KindPod, func(obj Object) bool {
		p := obj.(*Pod)
		return p.OwnerName == rsName && p.Status.Phase != PodFailed
	})
	out := make([]*Pod, len(owned))
	for i, obj := range owned {
		out[i] = obj.(*Pod)
	}
	return out
}

func (c *replicaSetController) reconcile(rsName string) {
	obj, ok := c.api.get(KindReplicaSet, rsName)
	if !ok {
		// ReplicaSet gone: reap the owned pods.
		c.work()
		for _, p := range c.ownedPods(rsName) {
			c.api.Delete(KindPod, p.Name)
		}
		return
	}
	rs := obj.(*ReplicaSet)
	c.work()
	pods := c.ownedPods(rs.Name)

	switch {
	case len(pods) < rs.Spec.Replicas:
		for i := len(pods); i < rs.Spec.Replicas; i++ {
			c.api.Create(c.newPod(rs, pods))
			pods = c.ownedPods(rs.Name)
		}
	case len(pods) > rs.Spec.Replicas:
		doomed := victims(pods, len(pods)-rs.Spec.Replicas)
		for _, p := range doomed {
			c.api.Delete(KindPod, p.Name)
		}
		pods = c.ownedPods(rs.Name)
	}

	ready := 0
	for _, p := range pods {
		if p.Status.Ready {
			ready++
		}
	}
	count := len(pods)
	c.api.Mutate(KindReplicaSet, rs.Name, func(obj Object) bool {
		live := obj.(*ReplicaSet)
		if live.Status.Replicas == count && live.Status.ReadyReplicas == ready {
			return false
		}
		live.Status.Replicas = count
		live.Status.ReadyReplicas = ready
		return true
	})
}

// newPod builds the next pod for rs, choosing a free ordinal suffix. It
// shares rs's template, which Create copies.
func (c *replicaSetController) newPod(rs *ReplicaSet, existing []*Pod) *Pod {
	used := make(map[string]bool, len(existing))
	for _, p := range existing {
		used[p.Name] = true
	}
	var name string
	for i := 0; ; i++ {
		name = fmt.Sprintf("%s-%d", rs.Name, i)
		if !used[name] {
			break
		}
	}
	return &Pod{
		ObjectMeta: ObjectMeta{
			Name:      name,
			Labels:    rs.Spec.Template.Labels,
			OwnerName: rs.Name,
		},
		Spec: PodSpec{
			Containers:    rs.Spec.Template.Containers,
			Volumes:       rs.Spec.Template.Volumes,
			SchedulerName: rs.Spec.Template.SchedulerName,
		},
		Status: PodStatus{Phase: PodPending},
	}
}

// victims picks n pods to delete on scale-down: not-ready first, then
// youngest.
func victims(pods []*Pod, n int) []*Pod {
	sorted := append([]*Pod(nil), pods...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Status.Ready != sorted[j].Status.Ready {
			return !sorted[i].Status.Ready
		}
		return sorted[i].CreatedAt.After(sorted[j].CreatedAt)
	})
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}

// endpointsController maintains one Endpoints object per Service listing
// the ready backing pods.
type endpointsController struct {
	controllerBase
}

func startEndpointsController(api *API, seed int64) {
	c := &endpointsController{controllerBase{api: api, clk: api.clk, rng: vclock.NewRand(seed)}}
	queue := newKeyQueue(api.clk)
	// Its Pod handler lists Services, which waits: one loop takes both kinds.
	events := vclock.NewMailbox[Event](api.clk)
	api.watchInto(KindService, events)
	api.watchInto(KindPod, events)
	api.clk.Go(func() {
		for {
			ev, ok := events.Recv()
			if !ok {
				return
			}
			switch obj := ev.Object.(type) {
			case *Service:
				queue.Add(obj.Name)
			case *Pod:
				// Any pod change may affect any service selecting it.
				for _, svc := range c.api.listFunc(KindService, func(s Object) bool {
					return ev.Type == Deleted || matchesSelector(obj.Labels, s.(*Service).Spec.Selector)
				}) {
					queue.Add(svc.Meta().Name)
				}
			}
		}
	})
	queue.runWorker(c.reconcile)
}

func (c *endpointsController) reconcile(svcName string) {
	obj, ok := c.api.get(KindService, svcName)
	if !ok {
		c.api.Delete(KindEndpoints, svcName)
		return
	}
	svc := obj.(*Service)
	c.work()

	var addrs []netem.HostPort
	for _, podObj := range c.api.listFunc(KindPod, func(obj Object) bool {
		return svc.Spec.Selector == nil || matchesSelector(obj.Meta().Labels, svc.Spec.Selector)
	}) {
		p := podObj.(*Pod)
		if p.Status.Ready && !p.Addr().IsZero() {
			addrs = append(addrs, p.Addr())
		}
	}
	sort.Slice(addrs, func(i, j int) bool {
		return strings.Compare(addrs[i].String(), addrs[j].String()) < 0
	})

	cur, exists := c.api.get(KindEndpoints, svc.Name)
	if !exists {
		c.api.Create(&Endpoints{
			ObjectMeta: ObjectMeta{Name: svc.Name, OwnerName: svc.Name},
			Addresses:  addrs,
		})
		return
	}
	c.api.Mutate(KindEndpoints, cur.Meta().Name, func(obj Object) bool {
		live := obj.(*Endpoints)
		if addrsEqual(live.Addresses, addrs) {
			return false
		}
		live.Addresses = addrs
		return true
	})
}

func addrsEqual(a, b []netem.HostPort) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
