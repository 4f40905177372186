package cluster

import (
	"fmt"

	"github.com/c3lab/transparentedge/internal/containerd"
	"github.com/c3lab/transparentedge/internal/kube"
	"github.com/c3lab/transparentedge/internal/registry"
)

// KubeCluster adapts a Kubernetes cluster.
type KubeCluster struct {
	name     string
	cluster  *kube.Cluster
	runtimes []*containerd.Runtime
	upstream registry.Remote
	location Location
}

// NewKubeCluster wraps a kube control plane. runtimes are the per-node
// containerd instances, needed for the Pull and Delete phases.
func NewKubeCluster(name string, c *kube.Cluster, runtimes []*containerd.Runtime, upstream registry.Remote, loc Location) *KubeCluster {
	return &KubeCluster{
		name:     name,
		cluster:  c,
		runtimes: runtimes,
		upstream: upstream,
		location: loc,
	}
}

// Name implements Cluster.
func (k *KubeCluster) Name() string { return k.name }

// Kind implements Cluster.
func (k *KubeCluster) Kind() Kind { return Kubernetes }

// Location implements Cluster.
func (k *KubeCluster) Location() Location { return k.location }

// CanHost implements Cluster: Kubernetes runs any containerized service.
func (k *KubeCluster) CanHost(Spec) bool { return true }

// Kube exposes the wrapped control plane.
func (k *KubeCluster) Kube() *kube.Cluster { return k.cluster }

// HasImages implements Cluster: every node must have every image. A
// store lookup takes no virtual time, so an image two containers share
// is simply looked up twice.
func (k *KubeCluster) HasImages(spec Spec) bool {
	for _, rt := range k.runtimes {
		for _, c := range spec.Containers {
			if !rt.Store().HasImage(c.Image) {
				return false
			}
		}
	}
	return true
}

// Pull implements Cluster: pre-pull on every node so the scheduler's
// placement never waits for a download.
func (k *KubeCluster) Pull(spec Spec) error {
	for _, rt := range k.runtimes {
		for _, ref := range spec.Images() {
			if _, err := rt.Pull(k.upstream, ref); err != nil {
				return fmt.Errorf("cluster %s: %w", k.name, err)
			}
		}
	}
	return nil
}

// Created implements Cluster.
func (k *KubeCluster) Created(name string) bool {
	return k.cluster.HasDeployment(name)
}

// Create implements Cluster: a Deployment with zero replicas plus the
// generated Service — exactly what the annotation engine emits.
func (k *KubeCluster) Create(spec Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	labels := map[string]string{"edge.service": spec.Name}
	for k2, v := range spec.Labels {
		labels[k2] = v
	}
	var containers []kube.ContainerSpec
	var targetPort uint16
	for _, c := range spec.Containers {
		containers = append(containers, kube.ContainerSpec{Name: c.Name, Image: c.Image, Port: c.Port})
		if c.Port != 0 && targetPort == 0 {
			targetPort = c.Port
		}
	}
	d := &kube.Deployment{
		ObjectMeta: kube.ObjectMeta{Name: spec.Name, Labels: labels},
		Spec: kube.DeploymentSpec{
			Replicas: 0,
			Selector: labels,
			Template: kube.PodTemplate{
				Labels:        labels,
				Containers:    containers,
				Volumes:       spec.Volumes,
				SchedulerName: spec.SchedulerName,
			},
		},
	}
	if err := k.cluster.CreateDeployment(d); err != nil {
		return fmt.Errorf("cluster %s: %w", k.name, err)
	}
	port := spec.ServicePort
	if port == 0 {
		port = targetPort
	}
	svc := &kube.Service{
		ObjectMeta: kube.ObjectMeta{Name: spec.Name, Labels: labels},
		Spec: kube.ServiceSpec{
			Selector: labels,
			Ports:    []kube.ServicePort{{Port: port, TargetPort: targetPort, Protocol: "TCP"}},
		},
	}
	if err := k.cluster.CreateService(svc); err != nil {
		return fmt.Errorf("cluster %s: %w", k.name, err)
	}
	return nil
}

// ScaleUp implements Cluster: one more replica.
func (k *KubeCluster) ScaleUp(name string) error {
	cur, ok := k.cluster.Replicas(name)
	if !ok {
		return fmt.Errorf("cluster %s: service %q not created", k.name, name)
	}
	return k.cluster.Scale(name, cur+1)
}

// ScaleDown implements Cluster: one fewer replica (not below zero).
func (k *KubeCluster) ScaleDown(name string) error {
	cur, ok := k.cluster.Replicas(name)
	if !ok {
		return fmt.Errorf("cluster %s: service %q not created", k.name, name)
	}
	if cur == 0 {
		return nil
	}
	return k.cluster.Scale(name, cur-1)
}

// Remove implements Cluster: delete the Deployment and Service.
func (k *KubeCluster) Remove(name string) error {
	if err := k.cluster.DeleteDeployment(name); err != nil {
		return fmt.Errorf("cluster %s: %w", k.name, err)
	}
	if err := k.cluster.DeleteService(name); err != nil {
		return fmt.Errorf("cluster %s: %w", k.name, err)
	}
	return nil
}

// DeleteImages implements Cluster.
func (k *KubeCluster) DeleteImages(spec Spec) error {
	for _, rt := range k.runtimes {
		for _, ref := range spec.Images() {
			if err := rt.Store().RemoveImage(ref); err != nil {
				return fmt.Errorf("cluster %s: %w", k.name, err)
			}
		}
	}
	return nil
}

// Instances implements Cluster: the service's ready endpoints.
func (k *KubeCluster) Instances(name string) []Instance {
	var out []Instance
	for _, addr := range k.cluster.ReadyEndpoints(name) {
		out = append(out, Instance{Addr: addr, Cluster: k.name})
	}
	return out
}
