package kube

import (
	"fmt"
	"sort"
	"sync"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// DefaultSchedulerName is the scheduler that binds pods whose spec does
// not name one — the Local Scheduler role in the paper's terminology
// when no custom scheduler is configured for the edge cluster.
const DefaultSchedulerName = "default-scheduler"

// NodePicker chooses a node for one pod — the pluggable heart of a
// Kubernetes scheduler. Custom Local Schedulers (the paper cites
// matching-based schedulers as examples) implement this.
type NodePicker interface {
	// Pick returns the chosen node name. nodes only contains nodes with
	// free capacity, and are Pick's own copies; pod is the API server's
	// stored object and must not be modified.
	Pick(nodes []*Node, pod *Pod) (string, error)
}

// LeastLoaded picks the node with the fewest pods (ties by name),
// approximating the default scheduler's spreading behaviour.
type LeastLoaded struct{}

// Pick implements NodePicker.
func (LeastLoaded) Pick(nodes []*Node, pod *Pod) (string, error) {
	if len(nodes) == 0 {
		return "", fmt.Errorf("kube: no schedulable nodes")
	}
	best := nodes[0]
	for _, n := range nodes[1:] {
		if n.Status.Pods < best.Status.Pods ||
			(n.Status.Pods == best.Status.Pods && n.Name < best.Name) {
			best = n
		}
	}
	return best.Name, nil
}

// BinPack fills the fullest node first — a custom Local Scheduler used
// by the ablation benches to show the plug-in mechanism end to end.
type BinPack struct{}

// Pick implements NodePicker.
func (BinPack) Pick(nodes []*Node, pod *Pod) (string, error) {
	if len(nodes) == 0 {
		return "", fmt.Errorf("kube: no schedulable nodes")
	}
	best := nodes[0]
	for _, n := range nodes[1:] {
		if n.Status.Pods > best.Status.Pods ||
			(n.Status.Pods == best.Status.Pods && n.Name < best.Name) {
			best = n
		}
	}
	return best.Name, nil
}

// scheduler binds pending pods addressed to its name on a fixed cycle.
type scheduler struct {
	api    *API
	clk    *vclock.Virtual
	rng    *vclock.Rand
	name   string
	picker NodePicker

	mu    sync.Mutex
	queue map[string]bool // pod names awaiting binding
}

func startScheduler(api *API, seed int64, name string, picker NodePicker) {
	s := &scheduler{
		api:    api,
		clk:    api.clk,
		rng:    vclock.NewRand(seed),
		name:   name,
		picker: picker,
		queue:  make(map[string]bool),
	}
	api.watchFunc(KindPod, func(ev Event) {
		p := ev.Object.(*Pod)
		s.mu.Lock()
		if ev.Type == Deleted {
			delete(s.queue, p.Name)
		} else if p.Spec.NodeName == "" && s.owns(p) {
			s.queue[p.Name] = true
		}
		s.mu.Unlock()
	})
	s.scheduleCycle()
}

// owns reports whether this scheduler is responsible for the pod.
func (s *scheduler) owns(p *Pod) bool {
	want := p.Spec.SchedulerName
	if want == "" {
		want = DefaultSchedulerName
	}
	return want == s.name
}

// scheduleCycle draws the next period and arms the next tick.
func (s *scheduler) scheduleCycle() {
	period := s.rng.Jitter(s.api.timing.SchedulerCycle, s.api.timing.JitterFrac)
	s.clk.Post(period, s.tick)
}

// tick runs one scheduling cycle. An idle cycle arms the next tick
// inline; one with pending pods binds them on a goroutine, because the
// API calls wait, and arms the next tick after the last bind.
func (s *scheduler) tick() {
	s.mu.Lock()
	if len(s.queue) == 0 {
		s.mu.Unlock()
		s.scheduleCycle()
		return
	}
	names := make([]string, 0, len(s.queue))
	for name := range s.queue {
		names = append(names, name)
	}
	clear(s.queue)
	s.mu.Unlock()
	sort.Strings(names)
	s.clk.Go(func() {
		for _, name := range names {
			s.bind(name)
		}
		s.scheduleCycle()
	})
}

func (s *scheduler) bind(podName string) {
	obj, ok := s.api.get(KindPod, podName)
	if !ok {
		return
	}
	p := obj.(*Pod)
	if p.Spec.NodeName != "" || !s.owns(p) {
		return
	}
	var free []*Node
	for _, nObj := range s.api.listFunc(KindNode, func(obj Object) bool {
		n := obj.(*Node)
		return n.Status.Ready && n.Status.Pods < n.Spec.Capacity
	}) {
		free = append(free, nObj.DeepCopy().(*Node))
	}
	nodeName, err := s.picker.Pick(free, p)
	if err != nil {
		// Leave the pod pending; retry next cycle.
		s.mu.Lock()
		s.queue[podName] = true
		s.mu.Unlock()
		return
	}
	bound := false
	s.api.Mutate(KindPod, podName, func(obj Object) bool {
		live := obj.(*Pod)
		if live.Spec.NodeName != "" {
			return false
		}
		live.Spec.NodeName = nodeName
		bound = true
		return true
	})
	if bound {
		s.api.Mutate(KindNode, nodeName, func(obj Object) bool {
			obj.(*Node).Status.Pods++
			return true
		})
	}
}

// releaseNodeSlot decrements a node's pod count when a pod dies; called
// by the kubelet during teardown.
func releaseNodeSlot(api *API, nodeName string) {
	api.Mutate(KindNode, nodeName, func(obj Object) bool {
		n := obj.(*Node)
		if n.Status.Pods == 0 {
			return false
		}
		n.Status.Pods--
		return true
	})
}
