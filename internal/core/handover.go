package core

import (
	"sync/atomic"
	"time"

	"github.com/c3lab/transparentedge/internal/metrics"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/openflow"
)

// This file is the controller half of client mobility: when a client's
// attachment point changes (the netem half is Network.Rehome), the
// handover manager re-steers the client's rewrite flows from the old
// gNB's switch to the new one, make-before-break:
//
//  1. make — install the full redirect set at the NEW switch first, in
//     one ApplyBundle (bundles bypass control-channel fault injection,
//     so a repair never races a lossy channel);
//  2. retag — move the client's tracked location to the new switch, so
//     the reconciler's desired state and future packet-ins follow it;
//  3. break — strict-delete the same set from the OLD switch, again as
//     a bundle.
//
// The ordering is what keeps sessions alive: from the instant the
// client's traffic arrives at the new gNB, the rewrite rules are
// already there, and until the break step the old switch still serves
// any packet in flight through it. A window where BOTH switches hold
// the rules is harmless — the rules rewrite, they do not duplicate.
// The reverse window (neither switch holding them) never opens, except
// when the old switch's table disagrees with the controller's view
// (e.g. it restarted mid-handover); the strict-delete detects exactly
// that, and the handover is counted as a continuity break.

// HandoverReport summarizes one processed handover.
type HandoverReport struct {
	// Client is the moving client.
	Client netem.IP
	// From and To name the old and new ingress switches; From is empty
	// when the client had no tracked location (first attach).
	From, To string
	// ReSteered is the number of client↔service mappings whose flows
	// moved to the new switch.
	ReSteered int
	// Migrated is the number of service migrations triggered (only with
	// Config.MigrateOnHandover).
	Migrated int
	// ContinuityBreak reports that the old switch held fewer flows than
	// the controller expected to delete.
	ContinuityBreak bool
	// Latency is the control-plane duration of the handover.
	Latency time.Duration
}

// Handover processes an attach-point change: client is now behind
// switch to, entering on inPort. It re-steers every memorized mapping
// of the client to the new switch (make-before-break, see the file
// comment), updates the tracked client location, and — with
// MigrateOnHandover — checks whether the service should follow the
// client to the new zone's optimal edge.
//
// Calling Handover for the switch the client is already behind is a
// no-op (the in-port is refreshed); a client with no tracked location
// is simply attached, with nothing to break.
func (c *Controller) Handover(client netem.IP, to *openflow.Switch, inPort int) HandoverReport {
	start := c.clk.Now()
	rep := HandoverReport{Client: client, To: to.DeviceName()}

	var from *openflow.Switch
	if loc, known := c.clients.location(client); known {
		if loc.Switch == to.DeviceName() {
			// Same attachment point: refresh the in-port and stop.
			c.clients.track(client, ClientLocation{
				Switch: loc.Switch, InPort: inPort, LastSeen: c.clk.Now(),
			})
			rep.From = loc.Switch
			return rep
		}
		rep.From = loc.Switch
		for _, sw := range c.switches {
			if sw.DeviceName() == loc.Switch {
				from = sw
				break
			}
		}
	}

	// The client's live mappings, in deterministic service order, with
	// the exact specs the dispatcher would install for them.
	entries := c.fm.EntriesFor(client)
	var specs []openflow.FlowSpec
	mappings := 0
	for _, e := range entries {
		svc, ok := c.ServiceByName(e.SvcName)
		if !ok {
			continue
		}
		specs = c.appendRedirectSpecs(specs, client, svc, e.Instance)
		mappings++
	}

	// Make: the new switch carries the full redirect set before the
	// client's location — and with it the reconciler's desired state —
	// moves over.
	if len(specs) > 0 {
		to.ApplyBundle(nil, specs)
		atomic.AddInt64(&c.stats.FlowsInstalled, int64(mappings))
	}

	// Retag: future packet-ins, resyncs, and migrations see the client
	// behind the new gNB.
	c.clients.track(client, ClientLocation{
		Switch: to.DeviceName(), InPort: inPort, LastSeen: c.clk.Now(),
	})

	// Break: strict-delete the set from the old switch. A shortfall
	// means the old switch's table had already diverged from the
	// controller's view — the make-before-break invariant did not hold
	// for this client, so count one continuity break (the reconciler
	// will converge the tables; it never re-counts).
	if from != nil && len(specs) > 0 {
		if deleted := from.ApplyBundle(specs, nil); deleted < len(specs) {
			rep.ContinuityBreak = true
			atomic.AddInt64(&c.stats.ContinuityBreaks, 1)
		}
	}

	rep.ReSteered = mappings
	atomic.AddInt64(&c.stats.Handovers, 1)
	atomic.AddInt64(&c.stats.ReSteeredFlows, int64(mappings))

	if c.cfg.MigrateOnHandover {
		rep.Migrated = c.migrateAfterHandover(client, to, entries)
	}

	rep.Latency = c.clk.Since(start)
	c.record(&c.handoverLat, "handover", rep.Latency)
	return rep
}

// HandoverLatency exposes the handover control-plane latency histogram,
// an empty one before the first handover. Read it only when no
// handovers are in flight (Hist is not safe for concurrent use).
func (c *Controller) HandoverLatency() *metrics.Hist {
	return c.latency(&c.handoverLat, "handover")
}

// migrateAfterHandover follows the client with the service: for each
// distinct service the client holds a mapping to, ask the scheduler how
// the clusters rank from the NEW zone; when the ranked choice is a
// cluster other than the one the client's instance runs on (and the
// service is not already up there), deploy it there in the background.
//
// Existing sessions are deliberately left on the old instance: their
// re-steered flows and FlowMemory entries stay untouched, because the
// new instance has no transport state for them — cutting them over
// would reset the very sessions the handover preserved. New flows find
// the migrated instance through the normal dispatch path, and the old
// deployment drains through idle scale-down once its last flow expires.
func (c *Controller) migrateAfterHandover(client netem.IP, to *openflow.Switch, entries []Entry) int {
	migrated := 0
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if seen[e.SvcName] {
			continue
		}
		seen[e.SvcName] = true
		svc, ok := c.ServiceByName(e.SvcName)
		if !ok {
			continue
		}
		atomic.AddInt64(&c.stats.ScheduleCalls, 1)
		candidates := c.candidatesFor(svc, to.DeviceName())
		decision := c.sched.Schedule(svc, client, candidates)
		target := decision.Best
		if target == nil && decision.FastInstance == nil {
			target = decision.Fast
		}
		if target == nil || target.Name() == e.Instance.Cluster {
			continue
		}
		already := false
		for _, cand := range candidates {
			if cand.Cluster == target && len(cand.Instances) > 0 {
				already = true
				break
			}
		}
		if already {
			continue
		}
		atomic.AddInt64(&c.stats.MigratedInstances, 1)
		migrated++
		c.clk.Go(func() {
			if _, err := c.deploy(svc, target); err != nil {
				atomic.AddInt64(&c.stats.DeployFailures, 1)
			}
		})
	}
	return migrated
}
