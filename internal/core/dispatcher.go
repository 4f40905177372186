package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/openflow"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// punt is one packet-in on its way through the dispatching algorithm of
// Fig. 7, from the claim of its flow key to the release of the held
// packet. It is the operand of the continuations that carry the punt
// from one control message to the next, where a handler goroutine would
// keep the same state on its stack across sleeps. Records are pooled.
type punt struct {
	c   *Controller
	sw  *openflow.Switch // ingress switch the packet entered through
	pin openflow.PacketIn
	// svc is the requested service; nil when the destination is not
	// registered (the packet is forwarded like a plain switch would, and
	// no flow key is claimed).
	svc *Service
	key flowKey
	// specs[next:] are the redirect flow-mods still to send; actions are
	// the packet-out's (nil: through the table).
	specs   []openflow.FlowSpec
	next    int
	actions []openflow.Action
	// done, when set, runs after the punt finished; tests wait on it.
	done func()
}

var puntPool = sync.Pool{New: func() any { return new(punt) }}

// forwardNormal is the packet-out action list for unregistered traffic.
var forwardNormal = []openflow.Action{openflow.OutputNormal{}}

// PacketIn implements openflow.Handler: the dispatching algorithm of
// Fig. 7 — flow memory first, then candidate gathering, the Global
// Scheduler's FAST/BEST decision, on-demand deployment of whichever
// choices need it, flow installation, and finally the release of the
// held packet.
//
// It runs to completion on the clock's event loop: the switch calls it
// inline when the punt has crossed the control channel, and every later
// step is a continuation the switch calls when the previous control
// message has crossed it (puntStep). A goroutine is started only for a
// dispatch that has to wait — see dispatch.
func (c *Controller) PacketIn(sw *openflow.Switch, pin openflow.PacketIn) {
	c.packetIn(sw, pin, nil)
}

// packetIn is PacketIn with a completion callback.
//
// The prologue takes two locks, one after the other: the client table's
// (trackAndClaim — client tracking and SYN-retransmit dedup in one
// critical section) and the FlowMemory's. The packet-in count is one
// atomic add and the service lookup reads an immutable snapshot.
func (c *Controller) packetIn(sw *openflow.Switch, pin openflow.PacketIn, done func()) {
	atomic.AddInt64(&c.stats.PacketIns, 1)
	p := puntPool.Get().(*punt)
	p.c, p.sw, p.pin, p.done = c, sw, pin, done
	svc, ok := c.ServiceByAddr(pin.Pkt.Dst)
	if !ok {
		// Not a registered service: behave like a plain switch.
		p.actions = forwardNormal
		puntStep(p)
		return
	}
	client := pin.Pkt.Src.IP
	p.key = flowKey{client: client, service: svc.Addr}

	// Track the client's ingress location and deduplicate concurrent
	// packet-ins (e.g. SYN retransmissions while a deployment holds the
	// first request) in one critical section.
	if c.clients.trackAndClaim(p.key, ClientLocation{
		Switch:   sw.DeviceName(),
		InPort:   pin.InPort,
		LastSeen: c.clk.Now(),
	}) {
		p.finish() // a packet-in for this flow is already being handled
		return
	}
	p.svc = svc // from here on the punt holds the claim

	// Fast path: memorized flow — reinstall without calling the
	// Scheduler.
	if !c.cfg.DisableFlowMemory {
		if inst, ok := c.fm.Lookup(client, svc.Addr); ok {
			atomic.AddInt64(&c.stats.MemoryHits, 1)
			p.redirect(inst)
			return
		}
	}

	inst, ok, wait := c.dispatch(sw, svc, client)
	if wait == nil {
		p.serve(inst, ok)
		return
	}
	c.clk.Go(func() { p.serve(c.holdBounded(svc, client, wait)) })
}

// serve ends a punt's dispatch — on the event loop or on the goroutine
// that waited for it — and enters the install chain: the instance (or,
// when deployment failed everywhere, the cloud origin) is memorized and
// the redirect flows go out.
func (p *punt) serve(inst cluster.Instance, ok bool) {
	c := p.c
	if !ok {
		// Deployment failed everywhere: let the cloud origin serve.
		atomic.AddInt64(&c.stats.DegradedToCloud, 1)
		inst = cluster.Instance{Addr: p.svc.Addr, Cluster: "origin"}
	}
	if !c.cfg.DisableFlowMemory {
		c.fm.Remember(p.key.client, p.svc.Addr, p.svc.Name, inst)
	}
	p.redirect(inst)
}

// redirect programs the ingress switch for (client, service, instance)
// and releases the held packet through the new flows.
func (p *punt) redirect(inst cluster.Instance) {
	atomic.AddInt64(&p.c.stats.FlowsInstalled, 1)
	p.specs = p.c.redirectSpecs(p.key.client, p.svc, inst)
	puntStep(p)
}

// puntStep sends a punt's next control message: each redirect flow-mod
// in turn, then the packet-out that releases the held packet. It is its
// own continuation — the switch calls it again once the message has
// crossed the control channel, the instant a blocking InstallFlow would
// have returned — so the messages of one punt stay one channel latency
// apart and in order.
func puntStep(arg any) {
	p := arg.(*punt)
	if p.next < len(p.specs) {
		p.next++
		p.sw.PostInstallFlow(p.specs[p.next-1], puntStep, p)
		return
	}
	p.sw.PostPacketOut(p.pin.Pkt, p.pin.InPort, p.actions, puntDone, p)
}

// puntDone runs when the packet-out has crossed the channel.
func puntDone(arg any) { arg.(*punt).finish() }

// finish drops the flow-key claim, if the punt holds it, and releases
// the punted packet — the switch cloned it for the controller, and it
// re-injected its own clone on packet-out — exactly once.
func (p *punt) finish() {
	if p.svc != nil {
		p.c.clients.release(p.key)
	}
	p.pin.Pkt.Release()
	done := p.done
	*p = punt{}
	puntPool.Put(p)
	if done != nil {
		done()
	}
}

// holdBounded runs wait — the remainder of a dispatch that has to wait
// — bounding the time the held packet may wait when HoldTimeout is set.
// On timeout the request degrades to the cloud origin — the client gets
// an answer instead of an indefinitely held packet during a partition —
// while the dispatch keeps running in the background; once it lands on
// an edge instance, the degraded memory entry is dropped so the next
// packet-in re-dispatches there.
func (c *Controller) holdBounded(svc *Service, client netem.IP, wait func() (cluster.Instance, bool)) (cluster.Instance, bool) {
	if c.cfg.HoldTimeout <= 0 {
		return wait()
	}
	var inst cluster.Instance
	var ok bool
	done := vclock.NewGate()
	c.clk.Go(func() {
		inst, ok = wait()
		done.Open()
	})
	if done.WaitTimeout(c.clk, c.cfg.HoldTimeout) {
		return inst, ok
	}
	atomic.AddInt64(&c.stats.DegradedToCloud, 1)
	c.clk.Go(func() {
		done.Wait(c.clk)
		if ok && inst.Addr != svc.Addr {
			c.fm.Forget(client, svc.Addr)
		}
	})
	return cluster.Instance{Addr: svc.Addr, Cluster: "origin"}, true
}

// dispatch gathers candidates, consults the Global Scheduler, and
// performs whatever deployments the FAST/BEST decision requires,
// yielding the instance that serves the current request. Proximity is
// evaluated from the client's ingress zone (the switch the packet
// entered through), so clients behind different gNBs get different
// optimal edges.
//
// dispatch itself never waits, so the packet-in path can call it on the
// event loop. With the candidate snapshot cached and an instance already
// running (or nothing deployable: toward the cloud) it returns the
// result and a nil wait. Otherwise it returns wait, the remainder that
// takes virtual time — interrogating the clusters, or the on-demand
// deployment the request is held for — for the caller to run on a
// goroutine; wait's results are the dispatch's.
//
// Candidate gathering is memoized per (service, zone) for a short TTL:
// under a packet-in storm the cluster answers are identical, so one
// snapshot serves every miss in the window instead of four virtual
// calls per cluster per request. Any deployment, scale-down, breaker
// transition, health eviction, or registration invalidates the cache.
func (c *Controller) dispatch(sw *openflow.Switch, svc *Service, client netem.IP) (inst cluster.Instance, ok bool, wait func() (cluster.Instance, bool)) {
	atomic.AddInt64(&c.stats.ScheduleCalls, 1)
	zone := sw.DeviceName()
	candidates, cached := c.cachedCandidates(svc, zone)
	if !cached {
		return cluster.Instance{}, false, func() (cluster.Instance, bool) {
			inst, ok, wait := c.decide(svc, client, c.gatherCandidates(svc, zone))
			if wait != nil {
				return wait()
			}
			return inst, ok
		}
	}
	return c.decide(svc, client, candidates)
}

// decide is the second half of dispatch: the Global Scheduler's verdict
// on a candidate snapshot and what it sets in motion.
func (c *Controller) decide(svc *Service, client netem.IP, candidates []Candidate) (inst cluster.Instance, ok bool, wait func() (cluster.Instance, bool)) {
	decision := c.sched.Schedule(svc, client, candidates)

	// BEST ≠ FAST: deploy the optimal edge in the background and switch
	// future requests over once it is running (Fig. 3).
	if decision.Best != nil && decision.Best != decision.Fast {
		atomic.AddInt64(&c.stats.DeploysNoWait, 1)
		best := decision.Best
		c.clk.Go(func() {
			inst, err := c.deploy(svc, best)
			if err != nil {
				atomic.AddInt64(&c.stats.DeployFailures, 1)
				return
			}
			// Future requests go to the optimal location: drop stale
			// memory so the next packet-in re-schedules. Active switch
			// flows drain via their (low) idle timeout.
			c.fm.ForgetService(svc.Name, inst)
		})
	}

	switch {
	case decision.FastInstance != nil:
		return *decision.FastInstance, true, nil
	case decision.Fast != nil:
		return cluster.Instance{}, false, func() (cluster.Instance, bool) { return c.deployFast(svc, decision) }
	default:
		// Forward toward the cloud.
		atomic.AddInt64(&c.stats.CloudForwards, 1)
		return cluster.Instance{Addr: svc.Addr, Cluster: "origin"}, true, nil
	}
}

// deployFast is on-demand deployment with waiting: the client's request
// stays on hold until the new instance answers its port.
func (c *Controller) deployFast(svc *Service, decision Decision) (cluster.Instance, bool) {
	atomic.AddInt64(&c.stats.DeploysWaiting, 1)
	inst, err := c.deploy(svc, decision.Fast)
	if err == nil {
		return inst, true
	}
	atomic.AddInt64(&c.stats.DeployFailures, 1)
	// The FAST choice failed even after per-phase retries: fail over
	// to the next-best candidates from the scheduler's ranked list
	// before surrendering to the cloud.
	for _, fb := range decision.Fallbacks {
		if fb == decision.Fast || !c.breakerAllows(fb.Name()) {
			continue
		}
		atomic.AddInt64(&c.stats.Failovers, 1)
		inst, err = c.deploy(svc, fb)
		if err == nil {
			return inst, true
		}
		atomic.AddInt64(&c.stats.DeployFailures, 1)
	}
	return cluster.Instance{}, false
}

// candidatesFor returns the scheduler candidates of one service as seen
// from one ingress zone, serving from the per-(service, zone) snapshot
// cache when it is fresh and interrogating the clusters — which takes
// virtual time — when it is not. Both dispatch and the handover
// manager's migration check see the clusters through the same cache, so
// they agree on what the clusters look like.
func (c *Controller) candidatesFor(svc *Service, zoneName string) []Candidate {
	if candidates, cached := c.cachedCandidates(svc, zoneName); cached {
		return candidates
	}
	return c.gatherCandidates(svc, zoneName)
}

// cachedCandidates is the half of candidatesFor that never waits.
func (c *Controller) cachedCandidates(svc *Service, zoneName string) ([]Candidate, bool) {
	candidates, cached := c.cands.get(svc.Name, zoneName, c.clk.Now())
	if cached {
		atomic.AddInt64(&c.stats.CandidateHits, 1)
	}
	return candidates, cached
}

// gatherCandidates interrogates every cluster and caches the snapshot.
// Its TTL counts from the start of the gather, not from its end.
func (c *Controller) gatherCandidates(svc *Service, zoneName string) []Candidate {
	now := c.clk.Now()
	atomic.AddInt64(&c.stats.CandidateMisses, 1)
	zone := c.cfg.ZoneLatency[zoneName]
	candidates := make([]Candidate, 0, len(c.cfg.Clusters))
	for _, cl := range c.cfg.Clusters {
		if !c.breakerAllows(cl.Name()) {
			// Circuit open: the cluster keeps failing deployments, skip it
			// until the cooldown admits a half-open probe.
			continue
		}
		spec := c.specFor(svc, cl)
		latency := cl.Location().Latency
		if override, ok := zone[cl.Name()]; ok {
			latency = override
		}
		candidates = append(candidates, Candidate{
			Cluster:   cl,
			Latency:   latency,
			Instances: cl.Instances(svc.Name),
			Created:   cl.Created(svc.Name),
			HasImages: cl.HasImages(spec),
			CanHost:   cl.CanHost(spec),
		})
	}
	c.cands.put(svc.Name, zoneName, now, candidates)
	return candidates
}

// specFor derives the per-cluster spec: the annotation engine sets the
// schedulerName configured for that particular edge cluster.
func (c *Controller) specFor(svc *Service, cl cluster.Cluster) cluster.Spec {
	spec := svc.Annotated.Spec
	if name, ok := c.cfg.LocalSchedulers[cl.Name()]; ok {
		spec.SchedulerName = name
	}
	return spec
}

// deploy runs the deployment phases (Fig. 4) for one service on one
// cluster, coalescing concurrent requests, and waits until an instance
// is ready (its port answers). A cached deployment whose instance has
// meanwhile disappeared (crash, external scale-down) is detected and
// redeployed.
func (c *Controller) deploy(svc *Service, cl cluster.Cluster) (cluster.Instance, error) {
	key := deployKey{service: svc.Name, cluster: cl.Name()}
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		st, exists := c.deployments[key]
		if !exists {
			st = &deployState{done: vclock.NewGate(), deployedByUs: true}
			c.deployments[key] = st
			c.mu.Unlock()
			st.inst, st.err = c.runPhases(svc, cl)
			c.breakerRecord(cl.Name(), st.err == nil)
			if st.err != nil {
				// Unregister the failed attempt so a later request retries.
				c.mu.Lock()
				delete(c.deployments, key)
				c.mu.Unlock()
			}
			// Either way the cluster's observable state changed (new
			// instance, or consumed capacity/failure): cached candidate
			// snapshots are stale.
			c.cands.bump()
			st.done.Open()
			return st.inst, st.err
		}
		c.mu.Unlock()
		st.done.Wait(c.clk)
		if st.err != nil {
			return st.inst, st.err
		}
		// Validate the cached result against the live cluster state.
		if insts := cl.Instances(svc.Name); len(insts) > 0 {
			return insts[0], nil
		}
		if attempt >= 2 {
			return cluster.Instance{}, fmt.Errorf("core: %s on %s keeps disappearing after deployment", svc.Name, cl.Name())
		}
		// Stale: the instance died behind our back. Drop the record and
		// redeploy.
		c.mu.Lock()
		if c.deployments[key] == st {
			delete(c.deployments, key)
		}
		c.mu.Unlock()
		c.cands.bump()
	}
}

// runPhases executes Pull → Create → Scale Up → wait-for-port,
// reporting per-phase durations through the OnDeploy hook. The
// DeployTimeout deadline starts here and bounds the deployment end to
// end — phases, their retries, and the readiness wait all share it.
// The report is made after the phases return, not in a deferred call: a
// deployment the end of the run cuts short at a park never finished and
// reports nothing.
func (c *Controller) runPhases(svc *Service, cl cluster.Cluster) (cluster.Instance, error) {
	tr := DeployTrace{Service: svc.Name, Cluster: cl.Name()}
	start := c.clk.Now()
	inst, err := c.timePhases(svc, cl, start.Add(c.cfg.DeployTimeout), &tr)
	tr.Total = c.clk.Since(start)
	tr.Err = err
	if c.cfg.OnDeploy != nil {
		c.cfg.OnDeploy(tr)
	}
	return inst, err
}

// timePhases runs the phases that are still needed and fills in tr's
// per-phase durations. Each phase retries transient failures with capped
// exponential backoff and deterministic jitter.
func (c *Controller) timePhases(svc *Service, cl cluster.Cluster, deadline time.Time, tr *DeployTrace) (cluster.Instance, error) {
	retryKey := svc.Name + "/" + cl.Name()
	spec := c.specFor(svc, cl)
	if !cl.HasImages(spec) {
		t0 := c.clk.Now()
		if err := c.retryPhase(deadline, retryKey+"/pull", func() error { return cl.Pull(spec) }); err != nil {
			return cluster.Instance{}, err
		}
		tr.Pull = c.clk.Since(t0)
		atomic.AddInt64(&c.stats.Pulls, 1)
	}
	if !cl.Created(svc.Name) {
		t0 := c.clk.Now()
		if err := c.retryPhase(deadline, retryKey+"/create", func() error { return cl.Create(spec) }); err != nil {
			return cluster.Instance{}, err
		}
		tr.Create = c.clk.Since(t0)
		atomic.AddInt64(&c.stats.Creates, 1)
	}
	t0 := c.clk.Now()
	if err := c.retryPhase(deadline, retryKey+"/scaleup", func() error { return cl.ScaleUp(svc.Name) }); err != nil {
		return cluster.Instance{}, err
	}
	tr.ScaleUp = c.clk.Since(t0)
	atomic.AddInt64(&c.stats.ScaleUps, 1)
	t0 = c.clk.Now()
	inst, err := c.waitReady(svc, cl, deadline)
	tr.Wait = c.clk.Since(t0)
	return inst, err
}

// retryPhase runs one deployment phase, retrying transient failures up
// to RetryMax times with capped exponential backoff. Retries stop when
// the next attempt could not even start before the deployment deadline.
// The jitter hash prefix over (seed, key) is computed once, outside the
// retry loop, so a retry storm costs no allocations per attempt.
func (c *Controller) retryPhase(deadline time.Time, key string, fn func() error) error {
	var prefix uint64
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil {
			return nil
		}
		if attempt >= c.cfg.RetryMax {
			return err
		}
		if attempt == 0 {
			prefix = c.backoffPrefix(key)
		}
		delay := c.backoff(prefix, attempt)
		if c.clk.Now().Add(delay).After(deadline) {
			return err
		}
		atomic.AddInt64(&c.stats.Retries, 1)
		c.clk.Sleep(delay)
	}
}

// FNV-1a, 64-bit, folded by hand: backoff resumes from a saved state.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvByte folds one byte into an FNV-1a state.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// backoffPrefix hashes "seed/key/" with FNV-1a — the attempt-invariant
// part of the jitter hash. backoff folds the attempt number into this
// prefix, producing exactly the hash a full FNV-1a pass over
// "seed/key/attempt" would, without constructing either the string or a
// hasher per attempt.
func (c *Controller) backoffPrefix(key string) uint64 {
	var buf [20]byte
	h := uint64(fnvOffset64)
	for _, b := range strconv.AppendInt(buf[:0], c.cfg.Seed, 10) {
		h = fnvByte(h, b)
	}
	h = fnvByte(h, '/')
	for i := 0; i < len(key); i++ {
		h = fnvByte(h, key[i])
	}
	return fnvByte(h, '/')
}

// Retry backoff bounds: the delay before the first retry, doubling per
// attempt up to the cap.
const (
	retryBaseDelay = 50 * time.Millisecond
	retryMaxDelay  = 2 * time.Second
)

// backoff computes the delay before retry number attempt: exponential
// from retryBaseDelay, capped at retryMaxDelay, jittered into
// [d/2, d) by a hash of (seed, key, attempt) — deterministic for a
// given seed, yet decorrelated across services, clusters, and phases
// regardless of goroutine interleaving. prefix is backoffPrefix(key).
func (c *Controller) backoff(prefix uint64, attempt int) time.Duration {
	d := retryBaseDelay << uint(attempt)
	if d <= 0 || d > retryMaxDelay {
		d = retryMaxDelay
	}
	var buf [20]byte
	h := prefix
	for _, b := range strconv.AppendInt(buf[:0], int64(attempt), 10) {
		h = fnvByte(h, b)
	}
	frac := float64(h%1024) / 1024
	return d/2 + time.Duration(frac*float64(d/2))
}

// waitReady polls the cluster for an instance and then verifies its
// port is open — "before setting up the flows, the controller
// continuously tests if the respective port is open" (§VI). The
// deadline is the whole deployment's: time spent pulling and creating
// counts against it.
func (c *Controller) waitReady(svc *Service, cl cluster.Cluster, deadline time.Time) (cluster.Instance, error) {
	for {
		for _, inst := range cl.Instances(svc.Name) {
			if c.probePort(inst.Addr) {
				return inst, nil
			}
		}
		if c.clk.Now().After(deadline) {
			return cluster.Instance{}, fmt.Errorf("core: %s on %s not ready within %v", svc.Name, cl.Name(), c.cfg.DeployTimeout)
		}
		c.clk.Sleep(c.cfg.ProbeInterval)
	}
}

// probePort checks whether the instance accepts TCP connections.
func (c *Controller) probePort(addr netem.HostPort) bool {
	conn, err := c.cfg.Host.DialTimeout(addr, c.cfg.ProbeInterval*5)
	if err != nil {
		return false
	}
	conn.Close()
	return true
}

// redirectSpecs builds the flow entries that realize (client, service,
// instance): a rewrite pair for an edge instance, or a plain forward
// rule when the instance is the cloud origin itself. Both the live
// install path and the reconciler's desired-state computation derive
// from this one function, so they can never disagree on what a
// mapping's flows look like.
func (c *Controller) redirectSpecs(client netem.IP, svc *Service, inst cluster.Instance) []openflow.FlowSpec {
	if inst.Addr == svc.Addr {
		// Served by the origin: skip the controller for future packets.
		return []openflow.FlowSpec{{
			Priority:    redirectPriority,
			Match:       openflow.Match{SrcIP: client, DstIP: svc.Addr.IP, DstPort: svc.Addr.Port},
			Actions:     []openflow.Action{openflow.OutputNormal{}},
			IdleTimeout: c.cfg.SwitchFlowIdle,
			Cookie:      svc.cookie,
		}}
	}
	return []openflow.FlowSpec{
		// Forward: client → registered address, rewritten to the instance.
		{
			Priority: redirectPriority,
			Match:    openflow.Match{SrcIP: client, DstIP: svc.Addr.IP, DstPort: svc.Addr.Port},
			Actions: []openflow.Action{
				openflow.SetDstIP{IP: inst.Addr.IP},
				openflow.SetDstPort{Port: inst.Addr.Port},
				openflow.OutputNormal{},
			},
			IdleTimeout: c.cfg.SwitchFlowIdle,
			Cookie:      svc.cookie,
		},
		// Reverse: instance → client, rewritten back to the registered
		// address so the exchange still looks like a cloud access.
		{
			Priority: redirectPriority,
			Match:    openflow.Match{SrcIP: inst.Addr.IP, SrcPort: inst.Addr.Port, DstIP: client},
			Actions: []openflow.Action{
				openflow.SetSrcIP{IP: svc.Addr.IP},
				openflow.SetSrcPort{Port: svc.Addr.Port},
				openflow.OutputNormal{},
			},
			IdleTimeout: c.cfg.SwitchFlowIdle,
			Cookie:      svc.cookie,
		},
	}
}

// PreDeploy proactively deploys a service on a named cluster (the
// "deployed proactively" arrow of Fig. 1); it blocks until ready.
func (c *Controller) PreDeploy(svcAddr netem.HostPort, clusterName string) (cluster.Instance, error) {
	svc, ok := c.ServiceByAddr(svcAddr)
	if !ok {
		return cluster.Instance{}, fmt.Errorf("core: service %s not registered", svcAddr)
	}
	for _, cl := range c.cfg.Clusters {
		if cl.Name() == clusterName {
			return c.deploy(svc, cl)
		}
	}
	return cluster.Instance{}, fmt.Errorf("core: unknown cluster %q", clusterName)
}
