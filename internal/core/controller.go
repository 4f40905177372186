package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/metrics"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/openflow"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// Flow priorities: per-client redirect rules must shadow the punt rule.
const (
	puntPriority     = 10
	redirectPriority = 20
)

// puntActions is every punt rule's action list; nothing writes to it.
var puntActions = []openflow.Action{openflow.OutputController{}}

// puntSpec is the rule that intercepts requests for svc's registered
// address (Fig. 2). Registration installs it and the reconciler audits
// for it, both from here.
func puntSpec(svc *Service) openflow.FlowSpec {
	return openflow.FlowSpec{
		Priority: puntPriority,
		Match:    openflow.Match{DstIP: svc.Addr.IP, DstPort: svc.Addr.Port},
		Actions:  puntActions,
		Cookie:   svc.cookie,
	}
}

// Config assembles a Controller.
type Config struct {
	// Host is the controller's network attachment, used for port
	// probing of new instances.
	Host *netem.Host
	// Switch is the primary ingress switch (gNB) the controller
	// programs.
	Switch *openflow.Switch
	// ExtraSwitches are additional ingress switches (further gNBs) —
	// "the network (i.e., an SDN switch) intercepts any request":
	// the controller manages all of them, installs punt rules
	// everywhere, and programs redirects on whichever switch a request
	// entered through.
	ExtraSwitches []*openflow.Switch
	// ZoneLatency overrides cluster proximity per ingress zone:
	// switch name → cluster name → latency from that gNB. Clusters
	// without an entry keep their Location latency. This is what makes
	// the deployment *distributed*: clients behind different gNBs get
	// different optimal edges.
	ZoneLatency map[string]map[string]time.Duration
	// Clusters lists the managed edge clusters plus the cloud.
	Clusters []cluster.Cluster
	// GlobalScheduler names the registered Global Scheduler
	// implementation to load (default: proximity).
	GlobalScheduler string
	// SchedulerConfig parameterizes the Global Scheduler.
	SchedulerConfig SchedulerConfig
	// LocalSchedulers maps cluster name → custom Local Scheduler name;
	// the annotation engine writes it into schedulerName.
	LocalSchedulers map[string]string
	// ProbeInterval is the polling period for instance readiness
	// ("the controller continuously tests if the respective port is
	// open").
	ProbeInterval time.Duration
	// DeployTimeout bounds one on-demand deployment end to end: the
	// clock starts before the Pull phase and covers retries and the
	// readiness wait.
	DeployTimeout time.Duration
	// RetryMax is the number of retries after the first failed attempt
	// of one deployment phase (default 2; negative disables retries).
	// Retry n backs off 50 ms << n, capped at 2 s, with deterministic
	// jitter.
	RetryMax int
	// BreakerThreshold trips a cluster's circuit breaker after that many
	// consecutive deployment failures (default 3; negative disables the
	// breaker). A tripped cluster is skipped during candidate gathering
	// until BreakerCooldown passes, then one half-open probe deployment
	// decides between recovery and another cooldown.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open.
	BreakerCooldown time.Duration
	// HealthProbeInterval is the cadence of the background instance
	// health prober, which re-checks the port of every instance the
	// FlowMemory references and evicts dead ones so the next packet-in
	// redeploys instead of blackholing into stale redirect flows.
	// Zero disables the prober.
	HealthProbeInterval time.Duration
	// CandidateTTL bounds how long a gathered per-(service, zone)
	// candidate snapshot may serve dispatch misses before the clusters
	// are interrogated again. Any deployment completion, scale-down,
	// breaker transition, health eviction, or registration invalidates
	// all snapshots immediately regardless of the TTL. Zero selects the
	// default (100 ms); negative disables the cache.
	CandidateTTL time.Duration
	// SwitchFlowIdle is the (low) idle timeout of installed switch
	// flows.
	SwitchFlowIdle time.Duration
	// MemoryIdle is the (higher) idle timeout of memorized flows.
	MemoryIdle time.Duration
	// OnDeploy, when set, receives per-phase timings of every
	// deployment the controller performs — the instrumentation behind
	// the Fig. 12/14/15 measurements.
	OnDeploy func(DeployTrace)
	// ScaleDownIdle scales a service down when its last memorized flow
	// expires.
	ScaleDownIdle bool
	// RemoveOnIdle additionally removes the service objects (Remove
	// phase) after scale-down.
	RemoveOnIdle bool
	// ResyncInterval is the anti-entropy reconciliation period: every
	// interval the controller audits each switch's flow table against
	// its FlowMemory-derived desired state, re-installing missing rules
	// and deleting orphans. Zero disables the loop (the default — the
	// loop only matters when the control channel can lose messages).
	ResyncInterval time.Duration
	// HoldTimeout bounds how long a packet-in's held packet may wait on
	// scheduling and deployment before the request degrades to the
	// cloud origin (partition-aware request handling). Zero holds
	// indefinitely, the paper's baseline behaviour.
	HoldTimeout time.Duration
	// DisableFlowMemory turns the FlowMemory off (ablation): every
	// packet-in goes through the full dispatch pipeline.
	DisableFlowMemory bool
	// ProactiveDeploy deploys every service to its optimal edge at
	// registration time — the "deployed proactively" arrow of Fig. 1.
	// The first request then finds a running instance immediately.
	ProactiveDeploy bool
	// MigrateOnHandover lets the handover manager follow the client with
	// the service: when a handover lands a client in a zone whose
	// scheduler-ranked optimal edge differs from where its instance
	// runs, the service is deployed there in the background. Existing
	// sessions keep their re-steered flows to the old instance; the old
	// deployment drains through the normal idle scale-down path.
	MigrateOnHandover bool
	// Seed feeds deterministic jitter.
	Seed int64
}

func (c Config) withDefaults() Config {
	out := c
	if out.GlobalScheduler == "" {
		out.GlobalScheduler = SchedulerProximity
	}
	if out.ProbeInterval <= 0 {
		out.ProbeInterval = 100 * time.Millisecond
	}
	if out.DeployTimeout <= 0 {
		out.DeployTimeout = 2 * time.Minute
	}
	if out.SwitchFlowIdle <= 0 {
		out.SwitchFlowIdle = 10 * time.Second
	}
	if out.MemoryIdle <= 0 {
		out.MemoryIdle = 60 * time.Second
	}
	if out.RetryMax == 0 {
		out.RetryMax = 2
	} else if out.RetryMax < 0 {
		out.RetryMax = 0
	}
	if out.BreakerThreshold == 0 {
		out.BreakerThreshold = 3
	} else if out.BreakerThreshold < 0 {
		out.BreakerThreshold = 0 // disabled
	}
	if out.BreakerCooldown <= 0 {
		out.BreakerCooldown = 30 * time.Second
	}
	if out.CandidateTTL == 0 {
		out.CandidateTTL = 100 * time.Millisecond
	} else if out.CandidateTTL < 0 {
		out.CandidateTTL = 0 // disabled
	}
	return out
}

// Service is one registered edge service: its public address, its
// (annotated) definition, and bookkeeping.
type Service struct {
	// Name is the worldwide-unique name assigned at registration.
	Name string
	// Addr is the registered public address (IP + port) clients use.
	Addr netem.HostPort
	// Definition is the developer-provided YAML.
	Definition string
	// Annotated holds the completed definitions and the derived spec.
	Annotated *Annotated
	// cookie tags this service's switch flows.
	cookie uint64
}

// DeployTrace reports the duration of each deployment phase (Fig. 4)
// of one on-demand deployment.
type DeployTrace struct {
	Service string
	Cluster string
	// Pull is the image pull time; zero when cached.
	Pull time.Duration
	// Create is the Create-phase duration; zero when already created.
	Create time.Duration
	// ScaleUp is the duration of the scale-up request.
	ScaleUp time.Duration
	// Wait is the time from the accepted scale-up until the instance's
	// port answered (Figs. 14/15).
	Wait time.Duration
	// Total is the end-to-end deployment duration.
	Total time.Duration
	// Err reports a failed deployment.
	Err error
}

// Stats counts controller activity; all fields are monotonic. This is
// the one place a counter is declared: the controller bumps the fields
// of a Stats value of its own with atomic adds, and Stats() and Add
// reach every field through counters.
type Stats struct {
	PacketIns      int64
	MemoryHits     int64
	ScheduleCalls  int64
	DeploysWaiting int64
	DeploysNoWait  int64
	CloudForwards  int64
	DeployFailures int64
	Pulls          int64
	Creates        int64
	ScaleUps       int64
	ScaleDowns     int64
	// ScaleDownFailures counts idle scale-downs the cluster rejected;
	// the deployment record is kept so controller state stays consistent
	// with the still-running instance.
	ScaleDownFailures int64
	Removes           int64
	FlowsInstalled    int64
	FlowRemovedMsgs   int64
	// Retries counts repeated deployment-phase attempts after transient
	// failures (capped exponential backoff).
	Retries int64
	// Failovers counts deployments redirected to the next-best candidate
	// after the FAST choice failed.
	Failovers int64
	// BreakerTrips / BreakerRecoveries count per-cluster circuit-breaker
	// transitions to open and back to closed.
	BreakerTrips      int64
	BreakerRecoveries int64
	// HealthEvictions counts instances the background health prober
	// found dead and evicted from the FlowMemory.
	HealthEvictions int64
	// CandidateHits / CandidateMisses count dispatches served from the
	// per-(service, zone) candidate snapshot cache vs full gathers.
	CandidateHits   int64
	CandidateMisses int64
	// ResyncRuns counts reconciliation audits (periodic anti-entropy
	// passes plus full resyncs after switch restarts).
	ResyncRuns int64
	// ReinstalledFlows counts flows the reconciler re-installed because
	// a switch was missing them (lost flow-mods, restarts).
	ReinstalledFlows int64
	// OrphanFlowsRemoved counts switch flows the reconciler deleted
	// because no FlowMemory state justified them.
	OrphanFlowsRemoved int64
	// DegradedToCloud counts held requests that gave up waiting on a
	// deployment (HoldTimeout) or exhausted every candidate and were
	// answered by the cloud origin instead.
	DegradedToCloud int64
	// Handovers counts attach-point changes the handover manager
	// processed (Controller.Handover with an actual switch change).
	Handovers int64
	// ReSteeredFlows counts memorized client↔service mappings whose
	// rewrite flows were re-installed at the new gNB during handovers.
	ReSteeredFlows int64
	// MigratedInstances counts service migrations triggered because the
	// new gNB's optimal edge differed from where the client's instance
	// was running.
	MigratedInstances int64
	// ContinuityBreaks counts handovers whose strict-delete at the old
	// gNB found fewer flows than expected — the old switch's state did
	// not match the controller's, so the make-before-break guarantee was
	// not fully upheld for that client.
	ContinuityBreaks int64
	// ChannelDrops sums control-channel messages lost to injected
	// faults across all managed switches.
	ChannelDrops int64
}

// counters returns a pointer to every field of s, in declaration order.
// The reflection walk keeps Stats() and Add complete as fields are
// added, and trips loudly if a non-counter field ever lands in Stats.
func (s *Stats) counters() []*int64 {
	v := reflect.ValueOf(s).Elem()
	out := make([]*int64, v.NumField())
	for i := range out {
		p, ok := v.Field(i).Addr().Interface().(*int64)
		if !ok {
			panic(fmt.Sprintf("core: Stats field %s is not an int64 counter", v.Type().Field(i).Name))
		}
		out[i] = p
	}
	return out
}

// Add returns the field-wise sum of two snapshots. Every counter is
// monotonic and per-event, so summing per-shard controller snapshots
// yields the whole-run accounting.
func (s Stats) Add(o Stats) Stats {
	sum := s.counters()
	for i, p := range o.counters() {
		*sum[i] += *p
	}
	return s
}

// svcTables is the read-mostly service registry. Lookups on the
// packet-in hot path load an immutable snapshot through an atomic
// pointer; registration (rare) builds a fresh copy under mu and swaps
// the pointer. Whole-table readers — the reconciler, a handover — work
// on one consistent snapshot without holding a lock across their waits.
type svcTables struct {
	services map[netem.HostPort]*Service
	byCookie map[uint64]*Service
	byName   map[string]*Service
}

// Controller is the SDN controller: the paper's contribution.
type Controller struct {
	// stats holds the counters (see Stats). It comes first so that its
	// fields are 64-bit aligned for the atomic adds on 32-bit platforms.
	stats Stats

	cfg   Config
	clk   *vclock.Virtual
	sched GlobalScheduler
	fm    *FlowMemory

	switches []*openflow.Switch

	// svc is the copy-on-write service registry (see svcTables).
	svc atomic.Pointer[svcTables]

	// clients tracks client locations and deduplicates packet-ins.
	clients *clientTable

	// cands caches gathered dispatch candidates per (service, zone).
	cands *candCache

	// audit keeps the reconciler's buffers between audits (resync.go).
	audit atomic.Pointer[auditBuffers]

	// mu guards everything below — cold-path state only; the packet-in
	// fast path never takes it. It is never held across a wait.
	mu sync.Mutex
	// nextCookie numbers the registrations mu serializes.
	nextCookie  uint64
	deployments map[deployKey]*deployState
	started     bool
	// breakers are the per-cluster circuit breakers.
	breakers map[string]*breakerState
	// clean is, per switch, what its last audit that found nothing to
	// repair read (resync.go).
	clean map[*openflow.Switch]cleanAudit
	// handoverLat is the control-plane latency of each handover: from
	// entering Handover to the old gNB's flows strict-deleted (Hist is
	// not safe for concurrent use).
	handoverLat *metrics.Hist
}

// ClientLocation is the Dispatcher's record of where a client was last
// seen — "this component also tracks the clients' current location"
// (§IV-B).
type ClientLocation struct {
	// Switch names the ingress switch (gNB) the client is behind.
	Switch string
	// InPort is the switch port the client's traffic entered on.
	InPort int
	// LastSeen is when the client last caused a packet-in.
	LastSeen time.Time
}

type deployKey struct {
	service string
	cluster string
}

type deployState struct {
	done *vclock.Gate
	inst cluster.Instance
	err  error
	// deployedByUs marks deployments this controller triggered, the
	// ones idle scale-down may undo.
	deployedByUs bool
	// scaledDown marks instances we took down again; a new deployment
	// re-runs the Scale Up phase.
	scaledDown bool
}

// New builds a controller. The switches are connected immediately, so
// packet-ins and flow removals are handled from here on; Start launches
// the background loops.
func New(clk *vclock.Virtual, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.Host == nil || cfg.Switch == nil {
		return nil, fmt.Errorf("core: controller needs a host and a switch")
	}
	if len(cfg.Clusters) == 0 {
		return nil, fmt.Errorf("core: controller needs at least one cluster")
	}
	sched, err := LoadScheduler(cfg.GlobalScheduler, cfg.SchedulerConfig)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:         cfg,
		clk:         clk,
		sched:       sched,
		fm:          NewFlowMemory(clk, cfg.MemoryIdle),
		clients:     newClientTable(),
		cands:       newCandCache(cfg.CandidateTTL),
		deployments: make(map[deployKey]*deployState),
		breakers:    make(map[string]*breakerState),
		clean:       make(map[*openflow.Switch]cleanAudit),
		handoverLat: metrics.NewHist("handover"),
	}
	c.svc.Store(&svcTables{
		services: make(map[netem.HostPort]*Service),
		byCookie: make(map[uint64]*Service),
		byName:   make(map[string]*Service),
	})
	c.switches = append([]*openflow.Switch{cfg.Switch}, cfg.ExtraSwitches...)
	for _, sw := range c.switches {
		sw.Connect(c)
	}
	if cfg.ScaleDownIdle {
		c.fm.OnServiceIdle = c.onServiceIdle
	}
	return c, nil
}

// ClientLocation returns where a client was last seen, if ever.
func (c *Controller) ClientLocation(ip netem.IP) (ClientLocation, bool) {
	return c.clients.location(ip)
}

// FlowMemory exposes the controller's flow memory (for inspection).
func (c *Controller) FlowMemory() *FlowMemory { return c.fm }

// Stats returns a snapshot of the controller counters, folding in the
// control-channel fault counters of every managed switch.
func (c *Controller) Stats() Stats {
	var s Stats
	snap := s.counters()
	for i, p := range c.stats.counters() {
		*snap[i] = atomic.LoadInt64(p)
	}
	for _, sw := range c.switches {
		s.ChannelDrops += sw.ChannelStats().Total()
	}
	return s
}

// RegisterService registers a service by its public address and lean
// YAML definition: the definition is annotated, the derived spec
// stored, and the intercept (punt) rule installed in the switch.
// The service tables are copy-on-write: registration clones them and
// swaps one atomic pointer, so packet-in lookups never block on it.
func (c *Controller) RegisterService(addr netem.HostPort, definition string) (*Service, error) {
	annotated, err := Annotate(definition, AnnotateOptions{
		UniqueName:  UniqueNameFor(addr),
		ServicePort: addr.Port,
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	old := c.svc.Load()
	if _, dup := old.services[addr]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("core: service %s already registered", addr)
	}
	c.nextCookie++
	svc := &Service{
		Name:       annotated.Spec.Name,
		Addr:       addr,
		Definition: definition,
		Annotated:  annotated,
		cookie:     c.nextCookie,
	}
	next := &svcTables{
		services: make(map[netem.HostPort]*Service, len(old.services)+1),
		byCookie: make(map[uint64]*Service, len(old.byCookie)+1),
		byName:   make(map[string]*Service, len(old.byName)+1),
	}
	for k, v := range old.services {
		next.services[k] = v
	}
	for k, v := range old.byCookie {
		next.byCookie[k] = v
	}
	for k, v := range old.byName {
		next.byName[k] = v
	}
	next.services[addr] = svc
	next.byCookie[svc.cookie] = svc
	next.byName[svc.Name] = svc
	c.svc.Store(next)
	c.mu.Unlock()
	c.cands.bump()

	// Intercept requests for the registered address (Fig. 2) on every
	// managed ingress switch.
	for _, sw := range c.switches {
		sw.InstallFlow(puntSpec(svc))
	}
	if c.cfg.ProactiveDeploy {
		// Proactive deployment (Fig. 1): bring the service up at the
		// nearest hosting cluster in the background.
		var best cluster.Cluster
		for _, cl := range c.cfg.Clusters {
			if !cl.CanHost(c.specFor(svc, cl)) {
				continue
			}
			if best == nil || cl.Location().Latency < best.Location().Latency {
				best = cl
			}
		}
		if best != nil {
			target := best
			c.clk.Go(func() {
				if _, err := c.deploy(svc, target); err != nil {
					atomic.AddInt64(&c.stats.DeployFailures, 1)
				}
			})
		}
	}
	return svc, nil
}

// ServiceByAddr returns the service registered at addr.
func (c *Controller) ServiceByAddr(addr netem.HostPort) (*Service, bool) {
	svc, ok := c.svc.Load().services[addr]
	return svc, ok
}

// ServiceByName returns the service with the given unique name.
func (c *Controller) ServiceByName(name string) (*Service, bool) {
	svc, ok := c.svc.Load().byName[name]
	return svc, ok
}

// Start launches the controller's background loops: one switch-restart
// watcher per managed switch, the instance health prober, and the
// reconciler. Packet-ins and flow removals need no loop — the switches
// call PacketIn and FlowRemoved inline.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	for _, sw := range c.switches {
		sw := sw
		c.clk.Go(func() { c.watchSwitch(sw) })
	}
	if c.cfg.HealthProbeInterval > 0 {
		c.clk.Go(c.healthProbeLoop)
	}
	if c.cfg.ResyncInterval > 0 {
		c.clk.Go(c.resyncLoop)
	}
}

// FlowRemoved implements openflow.Handler. It refreshes the flow memory
// when switch flows expire: the removal implies traffic existed until a
// moment ago, so the memorized mapping stays warm a while longer.
func (c *Controller) FlowRemoved(_ *openflow.Switch, msg openflow.FlowRemoved) {
	atomic.AddInt64(&c.stats.FlowRemovedMsgs, 1)
	svc, ok := c.svc.Load().byCookie[msg.Cookie]
	if !ok || !msg.IdleTimeout {
		return
	}
	var client netem.IP
	if msg.Match.DstIP == svc.Addr.IP && msg.Match.DstPort == svc.Addr.Port {
		client = msg.Match.SrcIP // forward rule
	} else {
		client = msg.Match.DstIP // reverse rule
	}
	c.fm.Touch(client, svc.Addr)
}

// onServiceIdle is the scale-down hook: the last memorized flow of the
// service expired.
func (c *Controller) onServiceIdle(svcName string) {
	if _, ok := c.svc.Load().byName[svcName]; !ok {
		return
	}
	c.mu.Lock()
	var targets []struct {
		cl    cluster.Cluster
		state *deployState
	}
	for _, cl := range c.cfg.Clusters {
		key := deployKey{service: svcName, cluster: cl.Name()}
		if st, ok := c.deployments[key]; ok && st.deployedByUs && !st.scaledDown && st.done.IsOpen() && st.err == nil {
			st.scaledDown = true
			targets = append(targets, struct {
				cl    cluster.Cluster
				state *deployState
			}{cl, st})
		}
	}
	c.mu.Unlock()

	for _, t := range targets {
		if err := t.cl.ScaleDown(svcName); err != nil {
			// The instance is still up: keep the deployment record so
			// controller state matches the cluster, and let a later idle
			// expiry try again.
			atomic.AddInt64(&c.stats.ScaleDownFailures, 1)
			c.mu.Lock()
			t.state.scaledDown = false
			c.mu.Unlock()
			continue
		}
		atomic.AddInt64(&c.stats.ScaleDowns, 1)
		if c.cfg.RemoveOnIdle {
			if err := t.cl.Remove(svcName); err == nil {
				atomic.AddInt64(&c.stats.Removes, 1)
			}
		}
		// Forget the deployment so the next request redeploys.
		c.mu.Lock()
		delete(c.deployments, deployKey{service: svcName, cluster: t.cl.Name()})
		c.mu.Unlock()
		c.cands.bump()
	}
}
