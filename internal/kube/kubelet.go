package kube

import (
	"fmt"
	"sync"
	"time"

	"github.com/c3lab/transparentedge/internal/containerd"
	"github.com/c3lab/transparentedge/internal/registry"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// kubelet runs the pods bound to one node on that node's containerd.
type kubelet struct {
	api      *API
	clk      *vclock.Virtual
	rng      *vclock.Rand
	nodeName string
	runtime  *containerd.Runtime
	registry registry.Remote
	resolver containerd.AppResolver

	mu      sync.Mutex
	workers map[string]*podWorker
}

// podWorker tracks one pod's containers on the node.
type podWorker struct {
	podName    string
	cancelled  bool
	released   bool // node slot already given back
	containers []*containerd.Container
	volumes    map[string]*containerd.Volume
}

func startKubelet(api *API, seed int64, nodeName string, rt *containerd.Runtime, reg registry.Remote, resolver containerd.AppResolver) *kubelet {
	k := &kubelet{
		api:      api,
		clk:      api.clk,
		rng:      vclock.NewRand(seed),
		nodeName: nodeName,
		runtime:  rt,
		registry: reg,
		resolver: resolver,
		workers:  make(map[string]*podWorker),
	}
	w := api.Watch(KindPod)
	api.clk.Go(func() {
		for {
			ev, ok := w.Recv()
			if !ok {
				return
			}
			k.handle(ev)
		}
	})
	return k
}

func (k *kubelet) handle(ev Event) {
	p := ev.Object.(*Pod)
	if ev.Type == Deleted {
		k.mu.Lock()
		worker := k.workers[p.Name]
		delete(k.workers, p.Name)
		k.mu.Unlock()
		if worker != nil {
			k.teardown(worker)
		}
		return
	}
	if p.Spec.NodeName != k.nodeName {
		return
	}
	k.mu.Lock()
	if _, running := k.workers[p.Name]; running {
		k.mu.Unlock()
		return
	}
	worker := &podWorker{podName: p.Name}
	k.workers[p.Name] = worker
	k.mu.Unlock()
	k.clk.Go(func() { k.runPod(p, worker) })
}

// runPod performs pod setup: sandbox, images, containers, readiness.
func (k *kubelet) runPod(p *Pod, worker *podWorker) {
	t := k.api.timing
	k.clk.Sleep(k.rng.Jitter(t.KubeletReact, t.JitterFrac))
	if k.gone(worker) {
		return
	}
	// Pod sandbox: pause container, cgroups, network namespace.
	k.clk.Sleep(k.rng.Jitter(t.SandboxSetup, t.JitterFrac))
	if k.gone(worker) {
		return
	}

	// Per-pod volumes shared between its containers.
	worker.volumes = make(map[string]*containerd.Volume, len(p.Spec.Volumes))
	for _, name := range p.Spec.Volumes {
		worker.volumes[name] = containerd.NewVolume(p.Name + "/" + name)
	}

	var servePort uint16
	for _, cs := range p.Spec.Containers {
		ctr, err := k.startContainer(p, cs, worker)
		if err != nil {
			k.failPod(p, worker, err)
			return
		}
		k.mu.Lock()
		worker.containers = append(worker.containers, ctr)
		cancelled := worker.cancelled
		k.mu.Unlock()
		if cancelled { // pod deleted mid-setup
			k.teardown(worker)
			return
		}
		if hp := ctr.HostPort(); hp != 0 && servePort == 0 {
			servePort = hp
		}
	}

	// Pod is running; record where it can be reached.
	if !k.updatePodStatus(p.Name, func(cur *Pod) {
		cur.Status.Phase = PodRunning
		cur.Status.HostIP = k.runtime.Host().IP()
		cur.Status.HostPort = servePort
	}) {
		k.teardown(worker)
		return
	}
	k.probeReadiness(p.Name, worker)
}

// gone reports whether the pod was deleted while the worker slept.
func (k *kubelet) gone(worker *podWorker) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return worker.cancelled || k.workers[worker.podName] != worker
}

// startContainer ensures the image, creates, and starts one container.
func (k *kubelet) startContainer(p *Pod, cs ContainerSpec, worker *podWorker) (*containerd.Container, error) {
	if !k.runtime.Store().HasImage(cs.Image) {
		// ImagePullPolicy IfNotPresent: the Pull phase normally ran
		// before Scale Up, but the kubelet covers cold paths itself.
		if _, err := k.runtime.Pull(k.registry, cs.Image); err != nil {
			return nil, fmt.Errorf("kubelet %s: pull %s: %w", k.nodeName, cs.Image, err)
		}
	}
	model, err := k.resolver.Resolve(cs.Image)
	if err != nil {
		return nil, fmt.Errorf("kubelet %s: resolve %s: %w", k.nodeName, cs.Image, err)
	}
	spec := model.BuildSpec(p.Name+"."+cs.Name, cs.Image, map[string]string{
		"kube.pod":       p.Name,
		"kube.container": cs.Name,
	}, worker.volumes)
	if cs.Port != 0 {
		spec.Port = cs.Port
	}
	ctr, err := k.runtime.Create(spec)
	if err != nil {
		return nil, err
	}
	if err := ctr.Start(); err != nil {
		return nil, err
	}
	return ctr, nil
}

// probeReadiness polls container readiness like the kubelet's probe
// workers: a uniform start splay of one period, then periodic checks.
func (k *kubelet) probeReadiness(podName string, worker *podWorker) {
	t := k.api.timing
	splay := time.Duration(k.rng.Float64() * float64(t.ProbePeriod))
	k.clk.Sleep(splay)
	for {
		if k.gone(worker) {
			return
		}
		k.mu.Lock()
		containers := append([]*containerd.Container(nil), worker.containers...)
		k.mu.Unlock()
		allReady := true
		for _, ctr := range containers {
			ready := ctr.Ready()
			if ctr.Spec().Port == 0 {
				// Sidecars without a port count as ready once running.
				ready = ctr.State() == containerd.StateRunning
			}
			if !ready {
				allReady = false
				break
			}
		}
		if allReady {
			k.updatePodStatus(podName, func(cur *Pod) { cur.Status.Ready = true })
			return
		}
		k.clk.Sleep(t.ProbePeriod)
	}
}

// updatePodStatus applies fn to the live pod object; it reports false if
// the pod no longer exists.
func (k *kubelet) updatePodStatus(podName string, fn func(*Pod)) bool {
	ok, err := k.api.Mutate(KindPod, podName, func(obj Object) bool {
		fn(obj.(*Pod))
		return true
	})
	return ok && err == nil
}

// failPod marks the pod failed and tears down whatever started.
func (k *kubelet) failPod(p *Pod, worker *podWorker, err error) {
	k.updatePodStatus(p.Name, func(cur *Pod) {
		cur.Status.Phase = PodFailed
		cur.Status.Ready = false
		if cur.Annotations == nil {
			cur.Annotations = map[string]string{}
		}
		cur.Annotations["kube.failure"] = err.Error()
	})
	k.teardown(worker)
}

// teardown stops and removes the pod's containers and frees the node slot.
func (k *kubelet) teardown(worker *podWorker) {
	k.mu.Lock()
	worker.cancelled = true
	if k.workers[worker.podName] == worker {
		delete(k.workers, worker.podName)
	}
	containers := worker.containers
	worker.containers = nil
	released := worker.released
	worker.released = true
	k.mu.Unlock()
	for _, ctr := range containers {
		ctr.Remove()
	}
	if !released {
		releaseNodeSlot(k.api, k.nodeName)
	}
}
