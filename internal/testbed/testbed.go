// Package testbed assembles the emulated Carinthian Computing Continuum
// (C³) evaluation environment of Fig. 8: 20 Raspberry Pi clients, the
// OVS switch and SDN controller, the Edge Gateway Server running both a
// Docker "cluster" and a Kubernetes cluster over one shared containerd,
// the upstream registries, and the cloud origins of every registered
// service. All experiments, examples, and benchmarks build on it.
package testbed

import (
	"fmt"
	"time"

	"github.com/c3lab/transparentedge/internal/catalog"
	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/containerd"
	"github.com/c3lab/transparentedge/internal/core"
	"github.com/c3lab/transparentedge/internal/docker"
	"github.com/c3lab/transparentedge/internal/faas"
	"github.com/c3lab/transparentedge/internal/faultinject"
	"github.com/c3lab/transparentedge/internal/kube"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/openflow"
	"github.com/c3lab/transparentedge/internal/registry"
	"github.com/c3lab/transparentedge/internal/trace"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// Options configure the testbed build.
type Options struct {
	// Clients is the number of Raspberry Pi client hosts (default 20).
	Clients int
	// WithDocker / WithKube select the EGS cluster types (default both).
	WithDocker bool
	WithKube   bool
	// KubeNodes is the Kubernetes node count (default 1: the EGS).
	KubeNodes int
	// WithFarEdge adds a second, farther Docker edge cluster — the
	// "another edge" of the without-waiting scenario (Fig. 3).
	WithFarEdge bool
	// WithFaas adds a serverless (WebAssembly) runtime on the EGS — the
	// paper's future-work side-by-side operation.
	WithFaas bool
	// TwoZones adds a second gNB (ingress switch) with its own clients
	// and its own near edge cluster, managed by the same controller:
	// the *distributed* on-demand deployment setting, where the optimal
	// edge depends on which gNB a client is behind.
	TwoZones bool
	// MobileClients adds that many mobile clients (requires TwoZones):
	// hosts that start behind the primary gNB but can re-home to the
	// second one and back with Testbed.RehomeClient — the handover
	// workload. Each mobile client has a home port on the primary
	// switch and a reserved port on gnb2.
	MobileClients int
	// UsePrivateRegistry pulls from a registry on the local network
	// instead of Docker Hub / GCR (the Fig. 13 variant).
	UsePrivateRegistry bool
	// GlobalScheduler names the controller's Global Scheduler
	// (default: proximity).
	GlobalScheduler string
	// Wait is the waiting policy for on-demand deployment. WaitBounded
	// is rejected: the testbed has no deployment-time estimate to bound.
	Wait core.WaitPolicy
	// SwitchFlowIdle / MemoryIdle override the controller timeouts.
	SwitchFlowIdle time.Duration
	MemoryIdle     time.Duration
	// ProbeInterval overrides the controller's readiness polling period.
	ProbeInterval time.Duration
	// CandidateTTL overrides the controller's candidate-snapshot cache
	// TTL (zero keeps the default; negative disables the cache).
	CandidateTTL time.Duration
	// PinAPIJitter pins the Docker daemon's API latency to its mean
	// (jitter fraction zero). The load experiment sets it: jitter draws
	// come from the engine's single rng in cross-service call order, the
	// one source of virtual time a service-partitioned run cannot
	// replay; with the draw value unused, per-call latency is identical
	// no matter how the run is sharded.
	PinAPIJitter bool
	// DisableFlowMemory runs the controller without its FlowMemory
	// (ablation).
	DisableFlowMemory bool
	// ScaleDownIdle / RemoveOnIdle enable automatic teardown.
	ScaleDownIdle bool
	RemoveOnIdle  bool
	// ProactiveDeploy brings services up at registration time (Fig. 1).
	ProactiveDeploy bool
	// MigrateOnHandover lets the controller follow mobile clients with
	// their services: after a handover, deploy at the new zone's optimal
	// edge when it differs (live sessions stay on their old instance).
	MigrateOnHandover bool
	// LocalSchedulers maps cluster name → custom Local Scheduler.
	LocalSchedulers map[string]string
	// KubeSchedulers registers custom Local Schedulers (by name) inside
	// the Kubernetes cluster.
	KubeSchedulers map[string]kube.NodePicker
	// OnDeploy taps the controller's per-phase deployment timings.
	OnDeploy func(core.DeployTrace)
	// Faults, when set, wraps every edge cluster and the image registry
	// in a seeded fault-injection plan (the cloud origin stays
	// fault-free: it is the guaranteed fallback).
	Faults *faultinject.Config
	// NetChaos, when set, configures seeded network and control-channel
	// chaos: client access-link flaps, cloud-router crash windows,
	// switch restarts, and OpenFlow channel loss. The schedule is armed
	// by ApplyNetChaos — callers invoke it after service registration so
	// fault offsets line up with trace-replay time.
	NetChaos *faultinject.NetworkConfig
	// ResyncInterval enables the controller's periodic flow-table
	// anti-entropy audit (zero disables it).
	ResyncInterval time.Duration
	// HoldTimeout bounds how long a packet-in may be held awaiting
	// deployment before the request degrades to the cloud path (zero
	// holds indefinitely).
	HoldTimeout time.Duration
	// HealthProbeInterval passes through to the controller's instance
	// health prober (zero disables it).
	HealthProbeInterval time.Duration
	// Seed drives all deterministic jitter.
	Seed int64
}

// zoneBClients is the client count behind the second gNB.
const zoneBClients = 5

func (o Options) withDefaults() Options {
	if o.Clients <= 0 {
		o.Clients = 20
	}
	if !o.WithDocker && !o.WithKube {
		o.WithDocker, o.WithKube = true, true
	}
	if o.KubeNodes <= 0 {
		o.KubeNodes = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ServiceHandle pairs a registered edge service with its catalog entry.
type ServiceHandle struct {
	Svc     *core.Service
	Addr    netem.HostPort
	Catalog catalog.Service
}

// Testbed is the assembled evaluation environment.
type Testbed struct {
	Opts       Options
	Clock      *vclock.Virtual
	Net        *netem.Network
	Switch     *openflow.Switch
	Controller *core.Controller
	// Faults is the active fault-injection plan (nil without Faults
	// options).
	Faults *faultinject.Plan
	// NetPlan is the armed network chaos plan (nil until ApplyNetChaos
	// runs with NetChaos options set).
	NetPlan *faultinject.NetworkPlan

	Docker  *cluster.DockerCluster
	Kube    *cluster.KubeCluster
	FarEdge *cluster.DockerCluster
	Faas    *faas.Cluster
	ZoneB   *cluster.DockerCluster // near edge of the second gNB
	SwitchB *openflow.Switch       // the second gNB
	Cloud   *cluster.StaticCluster

	EGS         *netem.Host
	Store       *containerd.Store // the EGS's shared containerd store
	DockerRT    *containerd.Runtime
	KubeRTs     []*containerd.Runtime
	FarEdgeRT   *containerd.Runtime
	ZoneBRT     *containerd.Runtime
	Hub, GCR    *registry.Registry
	Private     *registry.Registry
	clients     []*netem.Host
	clientLinks []*netem.Link
	clientsB    []*netem.Host
	mobiles     []*netem.Host
	// mobilePortA / mobilePortB are each mobile client's home port on
	// the primary switch and reserved port on gnb2; trunkA / trunkB are
	// the inter-gNB trunk ports (zero without TwoZones).
	mobilePortA, mobilePortB []int
	trunkA, trunkB           int
	cloudRouter              *netem.Router
	cloudPort                int
	nextOrigin               int
	services                 []*ServiceHandle
}

// ZoneBClient returns client host i behind the second gNB.
func (tb *Testbed) ZoneBClient(i int) *netem.Host { return tb.clientsB[i%len(tb.clientsB)] }

// New builds the testbed. It must run on a clock goroutine
// (inside clk.Run or clk.Go) because construction performs emulated
// control-plane operations.
func New(clk *vclock.Virtual, opts Options) (*Testbed, error) {
	if opts.Wait == core.WaitBounded {
		return nil, fmt.Errorf("testbed: the bounded waiting policy needs a deployment-time estimate, which the testbed does not provide")
	}
	opts = opts.withDefaults()
	tb := &Testbed{Opts: opts, Clock: clk}
	n := netem.NewNetwork(clk, opts.Seed)
	tb.Net = n

	// Registries.
	tb.Hub = registry.New(clk, opts.Seed+1, registry.DockerHub())
	tb.GCR = registry.New(clk, opts.Seed+2, registry.GCR())
	tb.Private = registry.New(clk, opts.Seed+3, registry.Private())
	catalog.PushAll(tb.Hub, tb.GCR)
	catalog.PushAllTo(tb.Private)
	catalog.PushWasm(tb.Hub)
	catalog.PushWasm(tb.Private)

	// The fault plan must exist before the clusters are built:
	// defaultRegistry routes their pulls through it.
	if opts.Faults != nil {
		tb.Faults = faultinject.NewPlan(clk, *opts.Faults)
	}

	// Switch port plan: clients, EGS, far edge, controller, cloud, one
	// port per extra Kubernetes node, a trunk to the second gNB, and a
	// home port per mobile client. Mobile ports go AFTER the trunk so
	// every pre-existing port index is unchanged by enabling mobility.
	if opts.MobileClients > 0 && !opts.TwoZones {
		return nil, fmt.Errorf("testbed: MobileClients requires TwoZones (the re-home target is the second gNB)")
	}
	ports := opts.Clients + 4 + opts.KubeNodes - 1
	if opts.TwoZones {
		ports++
	}
	ports += opts.MobileClients
	sw := openflow.NewSwitch(n, "ovs", ports)
	tb.Switch = sw

	// Clients (Raspberry Pis): 1 Gbps links through the Aruba switch.
	tb.clients, tb.clientLinks = wireAccessClients(n, sw, "pi", opts.Clients, 1,
		trace.ClientAddr,
		func(ip netem.IP, port int) { sw.AddRoute(ip, port) })

	// EGS: 10 Gbps uplink, hosting Docker and Kubernetes over one
	// shared containerd store.
	egsPort := opts.Clients + 1
	tb.EGS = n.NewHost("egs", netem.ParseIP("10.0.0.2"))
	n.Connect(tb.EGS.NIC(), sw.Port(egsPort), netem.LinkConfig{
		Latency:   200 * time.Microsecond,
		Bandwidth: netem.GbpsToBytes(10),
	})
	sw.AddRoute(tb.EGS.IP(), egsPort)

	ctTiming := containerd.DefaultTiming()
	tb.Store = containerd.NewStore(clk, opts.Seed+10, ctTiming)
	resolver := containerd.AppResolver(catalog.CombinedResolver{})

	var clusters []cluster.Cluster
	dockerTiming := docker.DefaultTiming()
	if opts.PinAPIJitter {
		dockerTiming.JitterFrac = 0
	}
	if opts.WithDocker {
		tb.DockerRT = containerd.NewRuntimeWithStore(clk, opts.Seed+11, tb.EGS, ctTiming, tb.Store)
		tb.DockerRT.SetPortBase(20000)
		engine := docker.NewEngine(clk, opts.Seed+12, tb.DockerRT, resolver, dockerTiming)
		tb.Docker = cluster.NewDockerCluster("edge-docker", engine, tb.defaultRegistry(),
			cluster.Location{Tier: 0, Latency: time.Millisecond})
		clusters = append(clusters, tb.Docker)
	}
	if opts.WithKube {
		var nodes []kube.NodeConfig
		// Node 0 is the EGS itself (shared store); extra nodes get their
		// own hosts and stores.
		rt0 := containerd.NewRuntimeWithStore(clk, opts.Seed+13, tb.EGS, ctTiming, tb.Store)
		rt0.SetPortBase(30000)
		tb.KubeRTs = append(tb.KubeRTs, rt0)
		nodes = append(nodes, kube.NodeConfig{Name: "egs", Runtime: rt0})
		// Extra worker nodes (an extension beyond the paper's single-node
		// EGS cluster) attach to their own switch ports.
		for i := 1; i < opts.KubeNodes; i++ {
			host := n.NewHost(fmt.Sprintf("k8s-node%d", i), netem.ParseIP(fmt.Sprintf("10.0.0.%d", 10+i)))
			port := opts.Clients + 4 + i
			n.Connect(host.NIC(), sw.Port(port), netem.LinkConfig{
				Latency:   500 * time.Microsecond,
				Bandwidth: netem.GbpsToBytes(1),
			})
			sw.AddRoute(host.IP(), port)
			rt := containerd.NewRuntime(clk, opts.Seed+14+int64(i), host, ctTiming)
			rt.SetPortBase(30000)
			tb.KubeRTs = append(tb.KubeRTs, rt)
			nodes = append(nodes, kube.NodeConfig{Name: host.Name(), Runtime: rt})
		}
		kc, err := kube.NewCluster(clk, kube.Config{
			Name:            "edge-k8s",
			Timing:          kube.DefaultTiming(),
			Registry:        tb.defaultRegistry(),
			Resolver:        resolver,
			Nodes:           nodes,
			ExtraSchedulers: opts.KubeSchedulers,
			Seed:            opts.Seed + 20,
		})
		if err != nil {
			return nil, err
		}
		tb.Kube = cluster.NewKubeCluster("edge-k8s", kc, tb.KubeRTs, tb.defaultRegistry(),
			cluster.Location{Tier: 0, Latency: 1200 * time.Microsecond})
		clusters = append(clusters, tb.Kube)
	}

	// Serverless runtime on the EGS (future-work extension). It sits at
	// the same tier as the container clusters but slightly "closer"
	// so the proximity scheduler prefers it when enabled.
	if opts.WithFaas {
		rt := faas.NewRuntime(clk, opts.Seed+25, tb.EGS, faas.DefaultTiming())
		tb.Faas = faas.NewCluster("edge-faas", rt, tb.defaultRegistry(), catalog.CombinedResolver{},
			cluster.Location{Tier: 0, Latency: 900 * time.Microsecond})
		clusters = append(clusters, tb.Faas)
	}

	// Far edge: a second Docker cluster farther away (Fig. 3).
	farPort := opts.Clients + 2
	if opts.WithFarEdge {
		host := n.NewHost("far-edge", netem.ParseIP("10.0.1.2"))
		n.Connect(host.NIC(), sw.Port(farPort), netem.LinkConfig{
			Latency:   8 * time.Millisecond,
			Bandwidth: netem.GbpsToBytes(1),
		})
		sw.AddRoute(host.IP(), farPort)
		tb.FarEdgeRT = containerd.NewRuntime(clk, opts.Seed+30, host, ctTiming)
		tb.FarEdgeRT.SetPortBase(20000)
		engine := docker.NewEngine(clk, opts.Seed+31, tb.FarEdgeRT, resolver, dockerTiming)
		tb.FarEdge = cluster.NewDockerCluster("edge-far", engine, tb.defaultRegistry(),
			cluster.Location{Tier: 1, Latency: 8 * time.Millisecond})
		clusters = append(clusters, tb.FarEdge)
	}

	// Controller host.
	ctrlPort := opts.Clients + 3
	ctrlHost := n.NewHost("sdn-controller", netem.ParseIP("10.0.254.1"))
	n.Connect(ctrlHost.NIC(), sw.Port(ctrlPort), netem.LinkConfig{
		Latency:   200 * time.Microsecond,
		Bandwidth: netem.GbpsToBytes(10),
	})
	sw.AddRoute(ctrlHost.IP(), ctrlPort)

	// Cloud uplink: everything unknown heads for the WAN.
	tb.cloudPort = opts.Clients + 4
	sw.SetDefaultRoute(tb.cloudPort)
	tb.Cloud = cluster.NewStaticCluster("cloud", cluster.Location{Tier: 9, Latency: 25 * time.Millisecond})
	clusters = append(clusters, tb.Cloud)

	// The cloud side is a router fanning out to per-service origins.
	tb.cloudRouter = netem.NewRouter(n, "wan", 256)
	n.Connect(tb.cloudRouter.Port(0), sw.Port(tb.cloudPort), netem.LinkConfig{
		Latency:   12 * time.Millisecond, // ≈25 ms RTT to the cloud
		Bandwidth: netem.GbpsToBytes(1),
	})
	tb.cloudRouter.SetDefault(tb.cloudRouter.Port(0))

	// Second zone: its own gNB, clients, and near edge, reached through
	// a trunk link — all managed by the one controller.
	var extraSwitches []*openflow.Switch
	zoneLatency := map[string]map[string]time.Duration{}
	if opts.TwoZones {
		// gnb2 ports: zone-B clients, the zone-B edge, the trunk, and one
		// reserved re-home port per mobile client (again after the trunk,
		// leaving the established indices alone).
		gnb2 := openflow.NewSwitch(n, "gnb2", zoneBClients+2+opts.MobileClients)
		tb.SwitchB = gnb2
		trunkA := opts.Clients + 4 + opts.KubeNodes // first port after the fixed plan
		trunkB := zoneBClients + 2
		tb.trunkA, tb.trunkB = trunkA, trunkB
		n.Connect(sw.Port(trunkA), gnb2.Port(trunkB), netem.LinkConfig{
			Latency:   5 * time.Millisecond,
			Bandwidth: netem.GbpsToBytes(10),
		})
		gnb2.SetDefaultRoute(trunkB) // EGS, cloud, controller: via the trunk

		zoneBBase := netem.ParseIP("192.168.2.0")
		tb.clientsB, _ = wireAccessClients(n, gnb2, "pib", zoneBClients, 1,
			func(i int) netem.IP { return zoneBBase + netem.IP(10+i) },
			func(ip netem.IP, port int) {
				gnb2.AddRoute(ip, port)
				sw.AddRoute(ip, trunkA)
			})
		edgeB := n.NewHost("edge-zoneb", netem.ParseIP("10.0.2.2"))
		edgeBPort := zoneBClients + 1
		n.Connect(edgeB.NIC(), gnb2.Port(edgeBPort), netem.LinkConfig{
			Latency:   200 * time.Microsecond,
			Bandwidth: netem.GbpsToBytes(10),
		})
		gnb2.AddRoute(edgeB.IP(), edgeBPort)
		sw.AddRoute(edgeB.IP(), trunkA)
		tb.ZoneBRT = containerd.NewRuntime(clk, opts.Seed+60, edgeB, ctTiming)
		tb.ZoneBRT.SetPortBase(20000)
		engineB := docker.NewEngine(clk, opts.Seed+61, tb.ZoneBRT, resolver, docker.DefaultTiming())
		// Base location: as seen from the primary gNB (far); the zone
		// override below makes it near for zone-B clients.
		tb.ZoneB = cluster.NewDockerCluster("edge-zoneb", engineB, tb.defaultRegistry(),
			cluster.Location{Tier: 0, Latency: 11 * time.Millisecond})
		clusters = append(clusters, tb.ZoneB)
		extraSwitches = append(extraSwitches, gnb2)

		// Per-zone proximity: each gNB has its own optimal edge.
		zoneLatency["gnb2"] = map[string]time.Duration{
			"edge-zoneb":  time.Millisecond,
			"edge-docker": 11 * time.Millisecond,
			"edge-k8s":    11200 * time.Microsecond,
			"edge-far":    18 * time.Millisecond,
			"cloud":       30 * time.Millisecond,
		}

		// Mobile clients: home on the primary gNB (ports after the
		// trunk), with a reserved attachment port each on gnb2. gnb2
		// reaches them through its default (trunk) route until they
		// re-home.
		if opts.MobileClients > 0 {
			mobBase := netem.ParseIP("192.168.3.0")
			tb.mobiles, _ = wireAccessClients(n, sw, "mob", opts.MobileClients, trunkA+1,
				func(i int) netem.IP { return mobBase + netem.IP(10+i) },
				func(ip netem.IP, port int) { sw.AddRoute(ip, port) })
			for i := 0; i < opts.MobileClients; i++ {
				tb.mobilePortA = append(tb.mobilePortA, trunkA+1+i)
				tb.mobilePortB = append(tb.mobilePortB, trunkB+1+i)
			}
		}
	}

	// The controller sees the clusters through the fault plan; the cloud
	// origin stays unwrapped — it is the fallback that must always work.
	if tb.Faults != nil {
		for i := range clusters {
			if clusters[i] != cluster.Cluster(tb.Cloud) {
				clusters[i] = tb.Faults.WrapCluster(clusters[i])
			}
		}
	}

	ctrl, err := core.New(clk, core.Config{
		Host:                ctrlHost,
		Switch:              sw,
		ExtraSwitches:       extraSwitches,
		ZoneLatency:         zoneLatency,
		Clusters:            clusters,
		GlobalScheduler:     opts.GlobalScheduler,
		SchedulerConfig:     core.SchedulerConfig{Wait: opts.Wait},
		LocalSchedulers:     opts.LocalSchedulers,
		SwitchFlowIdle:      opts.SwitchFlowIdle,
		MemoryIdle:          opts.MemoryIdle,
		ProbeInterval:       opts.ProbeInterval,
		CandidateTTL:        opts.CandidateTTL,
		HealthProbeInterval: opts.HealthProbeInterval,
		ResyncInterval:      opts.ResyncInterval,
		HoldTimeout:         opts.HoldTimeout,
		ScaleDownIdle:       opts.ScaleDownIdle,
		RemoveOnIdle:        opts.RemoveOnIdle,
		DisableFlowMemory:   opts.DisableFlowMemory,
		ProactiveDeploy:     opts.ProactiveDeploy,
		MigrateOnHandover:   opts.MigrateOnHandover,
		OnDeploy:            opts.OnDeploy,
		Seed:                opts.Seed + 40,
	})
	if err != nil {
		return nil, err
	}
	tb.Controller = ctrl
	ctrl.Start()
	return tb, nil
}

// wireAccessClients is the one access-side topology builder: the
// primary gNB's Raspberry-Pi swarm, the second zone's clients, and
// RunLoad's injection hosts all wire through it. It connects count
// hosts named prefix%02d to consecutive switch ports starting at
// basePort over identical 1 Gbps / 500 µs access links, addresses them
// via addrFor, and announces each address through route.
func wireAccessClients(n *netem.Network, sw *openflow.Switch, prefix string, count, basePort int,
	addrFor func(i int) netem.IP, route func(ip netem.IP, port int)) ([]*netem.Host, []*netem.Link) {
	hosts := make([]*netem.Host, 0, count)
	links := make([]*netem.Link, 0, count)
	for i := 0; i < count; i++ {
		port := basePort + i
		host := n.NewHost(fmt.Sprintf("%s%02d", prefix, i), addrFor(i))
		link := n.Connect(host.NIC(), sw.Port(port), netem.LinkConfig{
			Latency:   500 * time.Microsecond,
			Bandwidth: netem.GbpsToBytes(1),
		})
		route(host.IP(), port)
		hosts = append(hosts, host)
		links = append(links, link)
	}
	return hosts, links
}

// defaultRegistry returns the image source clusters pull from: either
// the private registry on the local network, or a federation of Docker
// Hub and GCR routed by reference (ResNet lives on "gcr.io/...").
func (tb *Testbed) defaultRegistry() registry.Remote {
	var rem registry.Remote
	if tb.Opts.UsePrivateRegistry {
		rem = tb.Private
	} else {
		rem = &registry.Federation{
			Default: tb.Hub,
			Routes:  map[string]registry.Remote{"gcr.io/": tb.GCR},
		}
	}
	if tb.Faults != nil {
		rem = tb.Faults.WrapRemote(rem)
	}
	return rem
}

// ApplyNetChaos arms the Options.NetChaos schedule relative to the
// current virtual instant: flaps the first FlapLinks client access
// links, schedules the cloud-router crash windows and main-switch
// restarts, and installs the control-channel fault model on every
// managed switch. It is a no-op without NetChaos options, and is
// deliberately separate from New so callers can register services
// first — chaos offsets then align with trace-replay time.
func (tb *Testbed) ApplyNetChaos() {
	if tb.Opts.NetChaos == nil || tb.NetPlan != nil {
		return
	}
	plan := faultinject.NewNetworkPlan(tb.Clock, *tb.Opts.NetChaos)
	tb.NetPlan = plan
	flaps := tb.Opts.NetChaos.FlapLinks
	if flaps <= 0 {
		flaps = 3
	}
	if flaps > len(tb.clientLinks) {
		flaps = len(tb.clientLinks)
	}
	for i := 0; i < flaps; i++ {
		plan.FlapLink(tb.clients[i].Name(), tb.clientLinks[i])
	}
	plan.CrashRouter(tb.cloudRouter)
	plan.ApplyChannel(tb.Switch)
	if tb.SwitchB != nil {
		plan.ApplyChannel(tb.SwitchB)
	}
	plan.RestartSwitch(tb.Switch)
}

// Client returns client host i.
func (tb *Testbed) Client(i int) *netem.Host { return tb.clients[i%len(tb.clients)] }

// Services lists the registered service handles.
func (tb *Testbed) Services() []*ServiceHandle { return tb.services }
