// Package kube emulates the Kubernetes control plane the paper deploys
// edge services to: an API server with watches, the
// Deployment→ReplicaSet→Pod controller chain, a pluggable scheduler,
// per-node kubelets driving the shared containerd runtime, and an
// endpoints controller.
//
// The point of modelling the full pipeline rather than a single "start
// pod" delay is that the paper's headline contrast — Docker scales up in
// under a second while Kubernetes needs around three — *is* the
// accumulated latency of these control loops. Here that overhead emerges
// from watch propagation, work-queue delays, scheduling cycles, kubelet
// sync, and readiness-probe quantization, each individually calibrated.
package kube

import (
	"fmt"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
)

// Kind names for the stored object types.
const (
	KindDeployment = "Deployment"
	KindReplicaSet = "ReplicaSet"
	KindPod        = "Pod"
	KindService    = "Service"
	KindEndpoints  = "Endpoints"
	KindNode       = "Node"
)

// ObjectMeta is the shared metadata of every API object.
type ObjectMeta struct {
	Name            string
	Labels          map[string]string
	Annotations     map[string]string
	ResourceVersion uint64
	CreatedAt       time.Time
	// OwnerName links derived objects to their parent (RS→Deployment,
	// Pod→RS).
	OwnerName string
}

func (m *ObjectMeta) copyMeta() ObjectMeta {
	out := *m
	out.Labels = copyMap(m.Labels)
	out.Annotations = copyMap(m.Annotations)
	return out
}

func copyMap(in map[string]string) map[string]string {
	if in == nil {
		return nil
	}
	out := make(map[string]string, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// Object is implemented by every stored API type.
type Object interface {
	Kind() string
	Meta() *ObjectMeta
	DeepCopy() Object
	// shallow copies the object's fields and shares its maps and
	// slices: Mutate's callbacks replace those, never write into them.
	shallow() Object
}

// ContainerSpec is one container in a pod template. Application
// behaviour (handler, readiness) is resolved from the image by the
// kubelet through the catalog's AppResolver, like a real node resolves
// an image to a runnable entrypoint.
type ContainerSpec struct {
	Name  string
	Image string
	// Port is the container port to expose; 0 for sidecars.
	Port uint16
}

// PodTemplate describes the pods a Deployment/ReplicaSet stamps out.
type PodTemplate struct {
	Labels     map[string]string
	Containers []ContainerSpec
	// Volumes lists shared-volume names instantiated per pod.
	Volumes []string
	// SchedulerName selects which scheduler binds the pods; empty means
	// the default scheduler.
	SchedulerName string
}

func (t PodTemplate) deepCopy() PodTemplate {
	out := t
	out.Labels = copyMap(t.Labels)
	out.Containers = append([]ContainerSpec(nil), t.Containers...)
	out.Volumes = append([]string(nil), t.Volumes...)
	return out
}

// Deployment is the declarative unit the SDN controller creates per
// edge service (Create phase) and scales (Scale Up/Down phases).
type Deployment struct {
	ObjectMeta
	Spec   DeploymentSpec
	Status DeploymentStatus
}

// DeploymentSpec holds the desired state.
type DeploymentSpec struct {
	Replicas int
	Selector map[string]string
	Template PodTemplate
}

// DeploymentStatus holds the observed state.
type DeploymentStatus struct {
	Replicas      int
	ReadyReplicas int
}

// Kind implements Object.
func (d *Deployment) Kind() string { return KindDeployment }

// Meta implements Object.
func (d *Deployment) Meta() *ObjectMeta { return &d.ObjectMeta }

func (d *Deployment) shallow() Object { out := *d; return &out }

// DeepCopy implements Object.
func (d *Deployment) DeepCopy() Object {
	out := *d
	out.ObjectMeta = d.copyMeta()
	out.Spec.Selector = copyMap(d.Spec.Selector)
	out.Spec.Template = d.Spec.Template.deepCopy()
	return &out
}

// ReplicaSet is the intermediate controller object between Deployments
// and Pods.
type ReplicaSet struct {
	ObjectMeta
	Spec   ReplicaSetSpec
	Status ReplicaSetStatus
}

// ReplicaSetSpec holds the desired pod count and template.
type ReplicaSetSpec struct {
	Replicas int
	Selector map[string]string
	Template PodTemplate
}

// ReplicaSetStatus holds observed counts.
type ReplicaSetStatus struct {
	Replicas      int
	ReadyReplicas int
}

// Kind implements Object.
func (r *ReplicaSet) Kind() string { return KindReplicaSet }

// Meta implements Object.
func (r *ReplicaSet) Meta() *ObjectMeta { return &r.ObjectMeta }

func (r *ReplicaSet) shallow() Object { out := *r; return &out }

// DeepCopy implements Object.
func (r *ReplicaSet) DeepCopy() Object {
	out := *r
	out.ObjectMeta = r.copyMeta()
	out.Spec.Selector = copyMap(r.Spec.Selector)
	out.Spec.Template = r.Spec.Template.deepCopy()
	return &out
}

// PodPhase is the pod lifecycle phase.
type PodPhase string

// Pod phases (subset).
const (
	PodPending PodPhase = "Pending"
	PodRunning PodPhase = "Running"
	PodFailed  PodPhase = "Failed"
)

// Pod is one scheduled instance.
type Pod struct {
	ObjectMeta
	Spec   PodSpec
	Status PodStatus
}

// PodSpec holds the containers and binding.
type PodSpec struct {
	Containers    []ContainerSpec
	Volumes       []string
	SchedulerName string
	// NodeName is set by the scheduler when the pod is bound.
	NodeName string
}

// PodStatus holds the observed state.
type PodStatus struct {
	Phase PodPhase
	// Ready means all containers passed their readiness probe.
	Ready bool
	// HostIP is the address of the bound node.
	HostIP netem.IP
	// HostPort is the host port of the pod's serving container (the
	// NodePort-equivalent endpoint clients are redirected to).
	HostPort uint16
}

// Kind implements Object.
func (p *Pod) Kind() string { return KindPod }

// Meta implements Object.
func (p *Pod) Meta() *ObjectMeta { return &p.ObjectMeta }

func (p *Pod) shallow() Object { out := *p; return &out }

// DeepCopy implements Object.
func (p *Pod) DeepCopy() Object {
	out := *p
	out.ObjectMeta = p.copyMeta()
	out.Spec.Containers = append([]ContainerSpec(nil), p.Spec.Containers...)
	out.Spec.Volumes = append([]string(nil), p.Spec.Volumes...)
	return &out
}

// Addr returns the pod's reachable service endpoint.
func (p *Pod) Addr() netem.HostPort {
	return netem.HostPort{IP: p.Status.HostIP, Port: p.Status.HostPort}
}

// ServicePort maps a service port to the container target port.
type ServicePort struct {
	Port       uint16
	TargetPort uint16
	Protocol   string
}

// Service is the stable addressing object generated by the controller's
// annotation engine for every edge service.
type Service struct {
	ObjectMeta
	Spec ServiceSpec
}

// ServiceSpec selects the backing pods.
type ServiceSpec struct {
	Selector map[string]string
	Ports    []ServicePort
}

// Kind implements Object.
func (s *Service) Kind() string { return KindService }

// Meta implements Object.
func (s *Service) Meta() *ObjectMeta { return &s.ObjectMeta }

func (s *Service) shallow() Object { out := *s; return &out }

// DeepCopy implements Object.
func (s *Service) DeepCopy() Object {
	out := *s
	out.ObjectMeta = s.copyMeta()
	out.Spec.Selector = copyMap(s.Spec.Selector)
	out.Spec.Ports = append([]ServicePort(nil), s.Spec.Ports...)
	return &out
}

// Endpoints lists the ready addresses behind a Service. In place of a
// kube-proxy NodePort hop, endpoints carry the pods' host-mapped ports
// directly (see DESIGN.md substitution table).
type Endpoints struct {
	ObjectMeta
	Addresses []netem.HostPort
}

// Kind implements Object.
func (e *Endpoints) Kind() string { return KindEndpoints }

// Meta implements Object.
func (e *Endpoints) Meta() *ObjectMeta { return &e.ObjectMeta }

func (e *Endpoints) shallow() Object { out := *e; return &out }

// DeepCopy implements Object.
func (e *Endpoints) DeepCopy() Object {
	out := *e
	out.ObjectMeta = e.copyMeta()
	out.Addresses = append([]netem.HostPort(nil), e.Addresses...)
	return &out
}

// Node is one worker in the cluster.
type Node struct {
	ObjectMeta
	Spec   NodeSpec
	Status NodeStatus
}

// NodeSpec holds static node facts.
type NodeSpec struct {
	IP netem.IP
	// Capacity is the maximum number of pods.
	Capacity int
}

// NodeStatus holds observed node state.
type NodeStatus struct {
	Ready bool
	Pods  int
}

// Kind implements Object.
func (n *Node) Kind() string { return KindNode }

// Meta implements Object.
func (n *Node) Meta() *ObjectMeta { return &n.ObjectMeta }

func (n *Node) shallow() Object { out := *n; return &out }

// DeepCopy implements Object.
func (n *Node) DeepCopy() Object {
	out := *n
	out.ObjectMeta = n.copyMeta()
	return &out
}

// matchesSelector reports whether labels satisfy selector (nil selector
// matches nothing, mirroring Kubernetes semantics for services).
func matchesSelector(labels, selector map[string]string) bool {
	if len(selector) == 0 {
		return false
	}
	for k, v := range selector {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// validateSelector ensures the template labels satisfy the selector, the
// invariant Kubernetes enforces at admission.
func validateSelector(selector, templateLabels map[string]string) error {
	if len(selector) == 0 {
		return fmt.Errorf("kube: empty selector")
	}
	if !matchesSelector(templateLabels, selector) {
		return fmt.Errorf("kube: template labels %v do not satisfy selector %v", templateLabels, selector)
	}
	return nil
}
