package cluster

import (
	"fmt"
	"sync"

	"github.com/c3lab/transparentedge/internal/netem"
)

// StaticCluster represents capacity outside the controller's management
// whose instances are always running — the cloud origin every registered
// service keeps, which the controller falls back to when no edge can
// serve a request.
type StaticCluster struct {
	name     string
	location Location

	mu        sync.Mutex
	instances map[string][]Instance
}

// NewStaticCluster returns an empty always-on cluster.
func NewStaticCluster(name string, loc Location) *StaticCluster {
	return &StaticCluster{
		name:      name,
		location:  loc,
		instances: make(map[string][]Instance),
	}
}

// SetInstance registers the permanently running instance of a service.
// It replaces the stored list and never writes into it, so a list
// Instances returned earlier keeps its contents.
func (s *StaticCluster) SetInstance(service string, addr netem.HostPort) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.instances[service] = []Instance{{Addr: addr, Cluster: s.name}}
}

// Name implements Cluster.
func (s *StaticCluster) Name() string { return s.name }

// Kind implements Cluster.
func (s *StaticCluster) Kind() Kind { return "static" }

// Location implements Cluster.
func (s *StaticCluster) Location() Location { return s.location }

// CanHost implements Cluster: static capacity deploys nothing.
func (s *StaticCluster) CanHost(Spec) bool { return false }

// HasImages implements Cluster: the origin always has its artifacts.
func (s *StaticCluster) HasImages(Spec) bool { return true }

// Pull implements Cluster as a no-op.
func (s *StaticCluster) Pull(Spec) error { return nil }

// Created implements Cluster.
func (s *StaticCluster) Created(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.instances[name]
	return ok
}

// Create implements Cluster; static capacity cannot be provisioned.
func (s *StaticCluster) Create(spec Spec) error {
	return fmt.Errorf("cluster %s: static cluster cannot create services", s.name)
}

// ScaleUp implements Cluster as a no-op (always running).
func (s *StaticCluster) ScaleUp(string) error { return nil }

// ScaleDown implements Cluster as a no-op.
func (s *StaticCluster) ScaleDown(string) error { return nil }

// Remove implements Cluster; static capacity cannot be removed.
func (s *StaticCluster) Remove(name string) error {
	return fmt.Errorf("cluster %s: static cluster cannot remove services", s.name)
}

// DeleteImages implements Cluster as a no-op.
func (s *StaticCluster) DeleteImages(Spec) error { return nil }

// Instances implements Cluster: the stored list itself.
func (s *StaticCluster) Instances(name string) []Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.instances[name]
}
