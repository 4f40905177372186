package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
)

// Candidate is the dispatcher's view of one cluster for one service:
// the Dispatcher "gathers a list of existing and running instances of
// the requested service" and hands it to the Scheduler (Fig. 7).
type Candidate struct {
	Cluster cluster.Cluster
	// Latency is the effective proximity of the cluster from the
	// client's ingress zone: the cluster's base Location latency, or
	// the per-zone override the Dispatcher applied from the client's
	// tracked location.
	Latency time.Duration
	// Instances are the ready instances in this cluster.
	Instances []cluster.Instance
	// Created reports whether the service objects already exist here.
	Created bool
	// HasImages reports whether the images are cached here.
	HasImages bool
	// CanHost reports whether the cluster could deploy this service at
	// all (a serverless runtime rejects container services; the cloud
	// deploys nothing).
	CanHost bool
}

// Decision is the Global Scheduler's verdict (§IV-B): FAST serves the
// current request, BEST is where future requests should go. BEST is nil
// when equal to FAST; a nil FAST forwards the request toward the cloud.
type Decision struct {
	// Fast is the cluster serving the current request; nil means
	// "forward toward the cloud".
	Fast cluster.Cluster
	// FastInstance, when non-nil, is an already-running instance in
	// Fast, so the request needs no deployment at all. It may point into
	// the candidates the scheduler was given: read it, never write it.
	FastInstance *cluster.Instance
	// Best, when non-nil and different from Fast, is deployed in the
	// background — on-demand deployment *without* waiting.
	Best cluster.Cluster
	// Fallbacks ranks the remaining deployable clusters (best first,
	// excluding Fast) for the dispatcher's failover: when deploying on
	// Fast fails, the next-best candidate is tried before the request
	// surrenders to the cloud.
	Fallbacks []cluster.Cluster
}

// GlobalScheduler chooses the edge cluster (the paper's Global
// Scheduler). Implementations are registered by name and loaded from
// the controller configuration.
//
// The candidates slice may be a cached snapshot shared by concurrent
// packet-ins (the dispatcher's candidate cache): implementations must
// treat it as read-only and copy before sorting or mutating.
type GlobalScheduler interface {
	Schedule(service *Service, client netem.IP, candidates []Candidate) Decision
}

// schedulerRegistry implements the "dynamically loaded" scheduler
// configuration: implementations self-register by name and the
// controller instantiates the configured one at start-up.
var (
	schedulerMu       sync.Mutex
	schedulerRegistry = map[string]func(SchedulerConfig) GlobalScheduler{}
)

// RegisterScheduler makes a Global Scheduler implementation loadable by
// name. It panics on duplicates, like database/sql drivers.
func RegisterScheduler(name string, factory func(SchedulerConfig) GlobalScheduler) {
	schedulerMu.Lock()
	defer schedulerMu.Unlock()
	if _, dup := schedulerRegistry[name]; dup {
		panic(fmt.Sprintf("core: scheduler %q registered twice", name))
	}
	schedulerRegistry[name] = factory
}

// LoadScheduler instantiates a registered Global Scheduler.
func LoadScheduler(name string, cfg SchedulerConfig) (GlobalScheduler, error) {
	schedulerMu.Lock()
	factory, ok := schedulerRegistry[name]
	schedulerMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown global scheduler %q", name)
	}
	return factory(cfg), nil
}

// SchedulerNames lists the registered Global Scheduler names, sorted.
func SchedulerNames() []string {
	schedulerMu.Lock()
	defer schedulerMu.Unlock()
	names := make([]string, 0, len(schedulerRegistry))
	for n := range schedulerRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WaitPolicy controls when the FAST choice may hold the client's
// request for an on-demand deployment.
type WaitPolicy int

// Wait policies.
const (
	// WaitAlways holds the request whenever no instance runs anywhere
	// (on-demand deployment with waiting).
	WaitAlways WaitPolicy = iota
	// WaitNever always serves the first request from a running instance
	// or the cloud while deploying in the background.
	WaitNever
	// WaitBounded holds the request only when the estimated deployment
	// time is below MaxWait.
	WaitBounded
)

// SchedulerConfig parameterizes the built-in Global Schedulers.
type SchedulerConfig struct {
	Wait WaitPolicy
	// MaxWait bounds the acceptable hold time under WaitBounded.
	MaxWait time.Duration
	// EstimateDeploy estimates the deployment duration for a service on
	// a cluster (used by WaitBounded); nil assumes instant.
	EstimateDeploy func(service *Service, c cluster.Cluster) time.Duration
}

// Built-in scheduler names.
const (
	SchedulerProximity = "proximity"
	SchedulerCloudOnly = "cloud-only"
	SchedulerHybrid    = "hybrid"
)

func init() {
	RegisterScheduler(SchedulerProximity, func(cfg SchedulerConfig) GlobalScheduler {
		return &ProximityScheduler{Config: cfg}
	})
	RegisterScheduler(SchedulerCloudOnly, func(cfg SchedulerConfig) GlobalScheduler {
		return &CloudOnlyScheduler{}
	})
	RegisterScheduler(SchedulerHybrid, func(cfg SchedulerConfig) GlobalScheduler {
		return &HybridScheduler{Config: cfg}
	})
}

// ProximityScheduler is the default Global Scheduler: the optimal edge
// is the lowest-latency deployable cluster; FAST is a running instance
// when one exists (preferring the optimal edge), otherwise the policy
// decides between holding the request (waiting) and the cloud.
type ProximityScheduler struct {
	Config SchedulerConfig
}

// Schedule implements GlobalScheduler.
func (p *ProximityScheduler) Schedule(service *Service, client netem.IP, candidates []Candidate) Decision {
	// One scan finds the optimal edge — the nearest cluster able to host
	// this service — and the nearest running *edge* instance. The cloud
	// origin always exists but is the explicit fallback ("If FAST is
	// empty, the request is forwarded toward the cloud"), not a FAST
	// candidate — and it is recognizable by CanHost being false while
	// still having instances. Strict < keeps the first of equals in input
	// order, as a stable sort by latency would.
	var best, running *Candidate
	for i := range candidates {
		c := &candidates[i]
		if !c.CanHost {
			continue
		}
		if best == nil || c.Latency < best.Latency {
			best = c
		}
		if len(c.Instances) > 0 && (running == nil || c.Latency < running.Latency) {
			running = c
		}
	}

	switch {
	case best == nil:
		return Decision{} // nothing anywhere: toward the cloud
	case running != nil && running.Cluster == best.Cluster:
		// Optimal edge already serves: FAST = BEST, nothing to deploy.
		return Decision{Fast: best.Cluster, FastInstance: &running.Instances[0]}
	case running != nil:
		// A farther instance serves the first request while the optimal
		// edge deploys in the background (deployment without waiting).
		return Decision{Fast: running.Cluster, FastInstance: &running.Instances[0], Best: best.Cluster}
	}

	// No instance anywhere: wait or fall back to the cloud.
	wait := true
	switch p.Config.Wait {
	case WaitNever:
		wait = false
	case WaitBounded:
		if p.Config.EstimateDeploy != nil &&
			p.Config.EstimateDeploy(service, best.Cluster) > p.Config.MaxWait {
			wait = false
		}
	}
	if wait {
		return Decision{Fast: best.Cluster, Fallbacks: fallbacksAfter(byLatency(candidates), best.Cluster)}
	}
	// Serve from the cloud, deploy at the optimal edge in parallel.
	return Decision{Best: best.Cluster}
}

// fallbacksAfter lists the deployable clusters of a latency-sorted
// candidate slice, best first, excluding the primary choice.
func fallbacksAfter(sorted []Candidate, primary cluster.Cluster) []cluster.Cluster {
	out := make([]cluster.Cluster, 0, len(sorted))
	for i := range sorted {
		if sorted[i].CanHost && sorted[i].Cluster != primary {
			out = append(out, sorted[i].Cluster)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// CloudOnlyScheduler is the baseline without edge computing: every
// request is forwarded toward the cloud and nothing is deployed.
type CloudOnlyScheduler struct{}

// Schedule implements GlobalScheduler.
func (CloudOnlyScheduler) Schedule(*Service, netem.IP, []Candidate) Decision {
	return Decision{}
}

// HybridScheduler implements the combination proposed in the paper's
// discussion (§VII): "First, we launch an edge service via Docker to
// respond faster to the initial request. Then, we deploy the same
// service to Kubernetes for future requests" — fast initial response
// plus automated cluster management.
type HybridScheduler struct {
	Config SchedulerConfig
}

// Schedule implements GlobalScheduler.
func (h *HybridScheduler) Schedule(service *Service, client netem.IP, candidates []Candidate) Decision {
	var dockerC, kubeC, running *Candidate
	for i := range candidates {
		c := &candidates[i]
		if !c.CanHost {
			continue
		}
		switch c.Cluster.Kind() {
		case cluster.Docker:
			if dockerC == nil || c.Latency < dockerC.Latency {
				dockerC = c
			}
		case cluster.Kubernetes:
			if kubeC == nil || c.Latency < kubeC.Latency {
				kubeC = c
			}
		}
		if len(c.Instances) > 0 {
			if running == nil || c.Latency < running.Latency {
				running = c
			}
		}
	}
	switch {
	case running != nil && kubeC != nil && running.Cluster != kubeC.Cluster && len(kubeC.Instances) == 0:
		// Docker (or another edge) answers now; Kubernetes takes over
		// for future requests once its instance runs.
		return Decision{Fast: running.Cluster, FastInstance: &running.Instances[0], Best: kubeC.Cluster}
	case running != nil:
		return Decision{Fast: running.Cluster, FastInstance: &running.Instances[0]}
	case dockerC != nil && kubeC != nil:
		// Nothing runs yet: hold the request for the fast Docker launch
		// and deploy to Kubernetes in the background.
		return Decision{Fast: dockerC.Cluster, Best: kubeC.Cluster,
			Fallbacks: fallbacksAfter(byLatency(candidates), dockerC.Cluster)}
	case dockerC != nil:
		return Decision{Fast: dockerC.Cluster, Fallbacks: fallbacksAfter(byLatency(candidates), dockerC.Cluster)}
	case kubeC != nil:
		return Decision{Fast: kubeC.Cluster, Fallbacks: fallbacksAfter(byLatency(candidates), kubeC.Cluster)}
	default:
		return Decision{}
	}
}

// byLatency returns a latency-sorted copy of candidates.
func byLatency(candidates []Candidate) []Candidate {
	sorted := append([]Candidate(nil), candidates...)
	slices.SortStableFunc(sorted, func(a, b Candidate) int { return cmp.Compare(a.Latency, b.Latency) })
	return sorted
}
