// Package cluster abstracts edge clusters behind one interface so the
// SDN controller's dispatcher is independent of the cluster type — the
// paper deploys the same service definitions to both Docker and
// Kubernetes. The deployment phases of Fig. 4 map 1:1 onto the interface:
// Pull, Create, ScaleUp, ScaleDown, Remove, DeleteImages.
package cluster

import (
	"fmt"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
)

// Kind identifies the cluster implementation.
type Kind string

// Supported cluster kinds.
const (
	Docker     Kind = "docker"
	Kubernetes Kind = "kubernetes"
)

// ContainerDef is one container of a service, cluster-agnostic.
type ContainerDef struct {
	Name  string
	Image string
	// Port is the serving container port; 0 for sidecars.
	Port uint16
}

// Spec is the deployable unit the controller's annotation engine
// produces from a service's YAML definition.
type Spec struct {
	// Name is the worldwide-unique service name assigned by the
	// annotation engine.
	Name string
	// Labels always include the edge.service label.
	Labels map[string]string
	// Containers lists the service's containers (Table I: 1 or 2).
	Containers []ContainerDef
	// Volumes lists shared volumes instantiated per service instance.
	Volumes []string
	// SchedulerName optionally selects a custom Local Scheduler
	// (Kubernetes only).
	SchedulerName string
	// ServicePort is the port exposed by the generated Service.
	ServicePort uint16
}

// Images returns the distinct image references of the spec.
func (s Spec) Images() []string {
	seen := make(map[string]bool, len(s.Containers))
	var out []string
	for _, c := range s.Containers {
		if !seen[c.Image] {
			seen[c.Image] = true
			out = append(out, c.Image)
		}
	}
	return out
}

// Validate checks the invariants the adapters rely on.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("cluster: spec without name")
	}
	if len(s.Containers) == 0 {
		return fmt.Errorf("cluster: service %q has no containers", s.Name)
	}
	serving := 0
	for _, c := range s.Containers {
		if c.Image == "" {
			return fmt.Errorf("cluster: service %q container %q without image", s.Name, c.Name)
		}
		if c.Port != 0 {
			serving++
		}
	}
	if serving == 0 {
		return fmt.Errorf("cluster: service %q exposes no port", s.Name)
	}
	return nil
}

// Instance is one ready service instance.
type Instance struct {
	// Addr is the reachable endpoint the switch redirects clients to.
	Addr netem.HostPort
	// Cluster names the hosting cluster.
	Cluster string
}

// Location places a cluster in the edge hierarchy. Clusters close to
// the users are small (tier 0); size and distance grow toward the cloud.
type Location struct {
	// Tier is the hierarchy level: 0 = on-site edge, larger = closer to
	// the cloud.
	Tier int
	// Latency is the typical one-way delay from the network ingress
	// (gNB) to the cluster.
	Latency time.Duration
}

// Cluster is the dispatcher's view of one edge cluster.
type Cluster interface {
	// Name identifies the cluster.
	Name() string
	// Kind reports the implementation type.
	Kind() Kind
	// Location places the cluster in the hierarchy.
	Location() Location
	// CanHost reports whether this cluster could deploy the spec at all
	// (e.g. a serverless runtime only hosts single-function Wasm
	// services; the static cloud deploys nothing). The Global Scheduler
	// only considers deployable candidates for its BEST choice.
	CanHost(spec Spec) bool

	// HasImages reports whether every image of the spec is cached
	// locally (Pull phase already done). It takes no virtual time.
	HasImages(spec Spec) bool
	// Pull fetches the spec's images from the cluster's upstream
	// registry (Pull phase).
	Pull(spec Spec) error
	// Created reports whether the service objects/containers exist
	// (Create phase already done).
	Created(name string) bool
	// Create materializes the service with zero running instances
	// (Create phase).
	Create(spec Spec) error
	// ScaleUp requests one more instance (Scale Up phase). It returns
	// once the request is accepted; readiness is observed via Instances
	// or the controller's port probing.
	ScaleUp(name string) error
	// ScaleDown requests one fewer instance.
	ScaleDown(name string) error
	// Remove deletes the service's objects/containers (Remove phase).
	Remove(name string) error
	// DeleteImages drops the spec's images from the local cache
	// (Delete phase).
	DeleteImages(spec Spec) error
	// Instances lists the ready instances of a service. The list may be
	// shared with other callers and with later calls: the caller must
	// not write to it, and the cluster never writes into a list it
	// returned, so an earlier answer stays what it was.
	Instances(name string) []Instance
}
