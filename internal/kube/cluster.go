package kube

import (
	"fmt"
	"time"

	"github.com/c3lab/transparentedge/internal/containerd"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/registry"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// NodeConfig describes one worker node of the cluster.
type NodeConfig struct {
	Name string
	// Runtime is the node's containerd instance (bound to its host).
	Runtime *containerd.Runtime
	// Capacity is the pod capacity; zero means 100.
	Capacity int
}

// Config assembles a cluster.
type Config struct {
	Name string
	// Timing is the control-plane cost model.
	Timing Timing
	// Registry is where kubelets pull images from.
	Registry registry.Remote
	// Resolver maps image references to app behaviour.
	Resolver containerd.AppResolver
	// Nodes lists the worker nodes; at least one is required.
	Nodes []NodeConfig
	// ExtraSchedulers registers custom Local Schedulers by name, in
	// addition to the always-present default scheduler.
	ExtraSchedulers map[string]NodePicker
	// Seed feeds the deterministic jitter of all components.
	Seed int64
}

// Cluster is a running control plane plus its nodes.
type Cluster struct {
	name string
	api  *API
	clk  *vclock.Virtual
}

// NewCluster builds and starts a cluster: API server, controllers,
// schedulers, and one kubelet per node.
func NewCluster(clk *vclock.Virtual, cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("kube: cluster %q needs at least one node", cfg.Name)
	}
	if cfg.Resolver == nil {
		return nil, fmt.Errorf("kube: cluster %q needs an app resolver", cfg.Name)
	}
	api := NewAPI(clk, cfg.Seed, cfg.Timing)
	c := &Cluster{name: cfg.Name, api: api, clk: clk}

	for i, nc := range cfg.Nodes {
		cap := nc.Capacity
		if cap <= 0 {
			cap = 100
		}
		node := &Node{
			ObjectMeta: ObjectMeta{Name: nc.Name},
			Spec:       NodeSpec{IP: nc.Runtime.Host().IP(), Capacity: cap},
			Status:     NodeStatus{Ready: true},
		}
		if err := api.Create(node); err != nil {
			return nil, err
		}
		startKubelet(api, cfg.Seed+100+int64(i), nc.Name, nc.Runtime, cfg.Registry, cfg.Resolver)
	}

	startDeploymentController(api, cfg.Seed+1)
	startReplicaSetController(api, cfg.Seed+2)
	startEndpointsController(api, cfg.Seed+3)
	startScheduler(api, cfg.Seed+4, DefaultSchedulerName, LeastLoaded{})
	i := int64(0)
	for name, picker := range cfg.ExtraSchedulers {
		startScheduler(api, cfg.Seed+10+i, name, picker)
		i++
	}
	return c, nil
}

// Name returns the cluster name.
func (c *Cluster) Name() string { return c.name }

// API returns the cluster's API server (the kubectl equivalent).
func (c *Cluster) API() *API { return c.api }

// CreateDeployment submits a Deployment object.
func (c *Cluster) CreateDeployment(d *Deployment) error {
	if err := validateSelector(d.Spec.Selector, d.Spec.Template.Labels); err != nil {
		return err
	}
	return c.api.Create(d)
}

// CreateService submits a Service object.
func (c *Cluster) CreateService(s *Service) error {
	return c.api.Create(s)
}

// Scale sets the replica count of a deployment (Scale Up / Scale Down
// phases).
func (c *Cluster) Scale(deployment string, replicas int) error {
	found, err := c.api.Mutate(KindDeployment, deployment, func(obj Object) bool {
		d := obj.(*Deployment)
		if d.Spec.Replicas == replicas {
			return false
		}
		d.Spec.Replicas = replicas
		return true
	})
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("kube: deployment %q not found", deployment)
	}
	return nil
}

// HasDeployment reports whether the deployment object exists (the
// dispatcher's "created?" check).
func (c *Cluster) HasDeployment(name string) bool {
	_, ok := c.api.get(KindDeployment, name)
	return ok
}

// Replicas returns the desired replica count of a deployment.
func (c *Cluster) Replicas(name string) (int, bool) {
	obj, ok := c.api.get(KindDeployment, name)
	if !ok {
		return 0, false
	}
	return obj.(*Deployment).Spec.Replicas, true
}

// ReadyEndpoints returns the ready addresses behind a service.
func (c *Cluster) ReadyEndpoints(service string) []netem.HostPort {
	obj, ok := c.api.get(KindEndpoints, service)
	if !ok {
		return nil
	}
	return append([]netem.HostPort(nil), obj.(*Endpoints).Addresses...)
}

// WaitReadyEndpoint polls until the service has a ready endpoint or the
// deadline passes, returning the first address. poll controls the
// querying client's period (the SDN controller uses its own).
func (c *Cluster) WaitReadyEndpoint(service string, poll, timeout time.Duration) (netem.HostPort, bool) {
	deadline := c.clk.Now().Add(timeout)
	for {
		if eps := c.ReadyEndpoints(service); len(eps) > 0 {
			return eps[0], true
		}
		if c.clk.Now().After(deadline) {
			return netem.HostPort{}, false
		}
		c.clk.Sleep(poll)
	}
}

// CordonNode marks a node unschedulable (kubectl cordon).
func (c *Cluster) CordonNode(name string) error {
	return c.setNodeReady(name, false)
}

// UncordonNode marks a node schedulable again (kubectl uncordon).
func (c *Cluster) UncordonNode(name string) error {
	return c.setNodeReady(name, true)
}

func (c *Cluster) setNodeReady(name string, ready bool) error {
	found, err := c.api.Mutate(KindNode, name, func(obj Object) bool {
		n := obj.(*Node)
		if n.Status.Ready == ready {
			return false
		}
		n.Status.Ready = ready
		return true
	})
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("kube: node %q not found", name)
	}
	return nil
}

// PodsOnNode lists the pods currently bound to a node.
func (c *Cluster) PodsOnNode(name string) []*Pod {
	var out []*Pod
	for _, obj := range c.api.List(KindPod, nil) {
		p := obj.(*Pod)
		if p.Spec.NodeName == name {
			out = append(out, p)
		}
	}
	return out
}

// DrainNode cordons the node and evicts its pods (kubectl drain); the
// owning ReplicaSets recreate the pods on the remaining nodes.
func (c *Cluster) DrainNode(name string) error {
	if err := c.CordonNode(name); err != nil {
		return err
	}
	for _, p := range c.PodsOnNode(name) {
		if err := c.api.Delete(KindPod, p.Name); err != nil {
			return err
		}
	}
	return nil
}

// DeleteDeployment removes a deployment; the controller chain reaps the
// ReplicaSet and Pods (Remove phase).
func (c *Cluster) DeleteDeployment(name string) error {
	return c.api.Delete(KindDeployment, name)
}

// DeleteService removes a service and its endpoints.
func (c *Cluster) DeleteService(name string) error {
	return c.api.Delete(KindService, name)
}
