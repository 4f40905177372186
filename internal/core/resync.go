package core

import (
	"cmp"
	"slices"
	"sync/atomic"

	"github.com/c3lab/transparentedge/internal/openflow"
)

// This file implements the controller's anti-entropy reconciliation:
// the switch's flow table is treated as a cache of the controller's
// desired state (punt rules for every registered service, redirect
// pairs for every memorized flow whose client sits behind the switch),
// and a periodic audit repairs divergence in both directions. Lost
// flow-mods leave the switch missing rules the controller believes in
// — the audit re-installs them. Lost FlowRemoved messages (or explicit
// forgets that raced a fault window) leave the switch holding rules no
// memory justifies — the audit deletes the orphans. Switch restarts
// wipe the whole table at once — the event watcher rebuilds it with
// one reliable ResyncFrom instead of per-rule repair.
//
// Detection rides the fallible channel (the flow-stats snapshot), but
// the repairs themselves go down as one barriered ApplyBundle — the
// OpenFlow BUNDLE commit idiom — so a repair never itself needs
// repairing and repair traffic does not perturb the per-message loss
// streams of the fault model. Convergence therefore needs only that
// the fault window ends: after the last fault, one audit makes the
// table equal to the desired state.

// auditBuffers is an audit's working memory, kept from one audit to the
// next (Controller.audit): audits in a quiet stretch would otherwise
// out-allocate the rest of the controller, all of it live to a GC cycle
// that overlaps them. It stays as large as the largest table audited.
type auditBuffers struct {
	svcs            []*Service
	entries         []Entry
	actual, desired []openflow.FlowSpec
	want            map[openflow.FlowID]bool // diffFlows' scratch
}

// desiredFlows computes, into buf.desired, the complete flow table
// switch sw should hold, in deterministic order: punt rules for every
// registered service (cookie order), then redirect pairs for every
// memorized flow whose client last entered through sw (flow-key order).
// With the FlowMemory disabled, redirects are not derivable and only
// punt rules are reconciled.
func (c *Controller) desiredFlows(sw *openflow.Switch, buf *auditBuffers) []openflow.FlowSpec {
	tables := c.svc.Load()
	buf.svcs = buf.svcs[:0]
	for _, svc := range tables.byCookie {
		buf.svcs = append(buf.svcs, svc)
	}
	slices.SortFunc(buf.svcs, func(a, b *Service) int { return cmp.Compare(a.cookie, b.cookie) })
	buf.desired = buf.desired[:0]
	for _, svc := range buf.svcs {
		buf.desired = append(buf.desired, puntSpec(svc))
	}
	if !c.cfg.DisableFlowMemory {
		buf.entries = c.fm.AppendEntries(buf.entries[:0])
		slices.SortFunc(buf.entries, func(a, b Entry) int {
			return cmp.Or(cmp.Compare(a.Client, b.Client),
				cmp.Compare(a.Service.IP, b.Service.IP), cmp.Compare(a.Service.Port, b.Service.Port))
		})
		swName := sw.DeviceName()
		for _, e := range buf.entries {
			if loc, ok := c.clients.location(e.Client); !ok || loc.Switch != swName {
				continue
			}
			if svc, ok := tables.services[e.Service]; ok {
				buf.desired = append(buf.desired, c.redirectSpecs(e.Client, svc, e.Instance)...)
			}
		}
	}
	return buf.desired
}

// auditSwitch runs one reconciliation pass against sw: orphans are
// deleted first (this also clears stale-action entries for a match the
// memory now maps elsewhere), then missing rules are re-installed.
//
// The live table is snapshotted before the desired state. Any flow
// installed concurrently between the two snapshots therefore shows up
// in desired but not in the snapshot and is installed a second time —
// a benign duplicate (identical match, priority, and actions) that
// classification treats as one rule — never as a false orphan: a
// flow's memory entry exists before the flow is installed, so every
// flow in the early snapshot has its justification visible to the late
// snapshot, and everything the audit deletes is genuinely unjustified.
func (c *Controller) auditSwitch(sw *openflow.Switch) {
	atomic.AddInt64(&c.stats.ResyncRuns, 1)
	deletes, installs := c.diffSwitch(sw)
	if c.cfg.DisableFlowMemory {
		// Redirects are not derivable without the memory: leave them to
		// their idle timeouts.
		deletes = slices.DeleteFunc(deletes, func(spec openflow.FlowSpec) bool {
			return spec.Priority != puntPriority
		})
	}
	if len(deletes) == 0 && len(installs) == 0 {
		return
	}
	deleted := sw.ApplyBundle(deletes, installs)
	atomic.AddInt64(&c.stats.OrphanFlowsRemoved, int64(deleted))
	atomic.AddInt64(&c.stats.ReinstalledFlows, int64(len(installs)))
}

// diffSwitch reads sw's table, then the desired state, and diffs them,
// in the buffers the last audit left — or in fresh ones while another
// audit, asleep in its flow-stats read, holds those.
func (c *Controller) diffSwitch(sw *openflow.Switch) (orphans, missing []openflow.FlowSpec) {
	buf := c.audit.Swap(nil)
	if buf == nil {
		buf = &auditBuffers{want: make(map[openflow.FlowID]bool)}
	}
	defer c.audit.Store(buf)
	buf.actual = sw.AppendFlowTable(buf.actual[:0])
	return diffFlows(buf.actual, c.desiredFlows(sw, buf), buf.want)
}

// diffFlows compares a switch's table with the desired state by flow
// identity (openflow.FlowID — priority, match and folded actions; timeouts
// and cookies come from the same spec constructors on both sides, so
// they never diverge independently). Membership has set semantics —
// identical duplicates on either side count as one rule — but the
// results keep their input's order and its duplicates: orphans are the
// actual flows no desired flow justifies (each needs its own delete),
// missing the desired flows the table lacks. want is scratch.
func diffFlows(actual, desired []openflow.FlowSpec, want map[openflow.FlowID]bool) (orphans, missing []openflow.FlowSpec) {
	clear(want)
	for i := range desired {
		want[desired[i].ID()] = false
	}
	for i := range actual {
		id := actual[i].ID()
		if held, ok := want[id]; !ok {
			orphans = append(orphans, actual[i])
		} else if !held {
			want[id] = true
		}
	}
	for i := range desired {
		if !want[desired[i].ID()] {
			missing = append(missing, desired[i])
		}
	}
	return orphans, missing
}

// distinctFlows counts the distinct identities in specs.
func distinctFlows(specs []openflow.FlowSpec) int {
	ids := make(map[openflow.FlowID]struct{}, len(specs))
	for i := range specs {
		ids[specs[i].ID()] = struct{}{}
	}
	return len(ids)
}

// AuditDiff reports how many flows differ between sw's live table and
// the controller's desired state — the symmetric set difference, with
// identical duplicates collapsing — without repairing anything. Tests
// use it to assert post-chaos convergence.
func (c *Controller) AuditDiff(sw *openflow.Switch) int {
	orphans, missing := c.diffSwitch(sw)
	return distinctFlows(orphans) + distinctFlows(missing)
}

// ResyncNow audits every managed switch once, immediately.
func (c *Controller) ResyncNow() {
	for _, sw := range c.switches {
		c.auditSwitch(sw)
	}
}

// resyncLoop is the periodic anti-entropy driver.
func (c *Controller) resyncLoop() {
	for {
		c.clk.Sleep(c.cfg.ResyncInterval)
		c.ResyncNow()
	}
}

// watchSwitch reacts to switch lifecycle events: a restart wiped the
// flow table, so the whole desired state is pushed back in one
// reliable resync instead of waiting for per-rule audits.
func (c *Controller) watchSwitch(sw *openflow.Switch) {
	events := sw.Events()
	for {
		ev, ok := events.Recv()
		if !ok {
			return
		}
		if ev.Restarted {
			c.resyncFromScratch(sw)
		}
	}
}

// resyncFromScratch rebuilds a restarted switch's entire table.
func (c *Controller) resyncFromScratch(sw *openflow.Switch) {
	atomic.AddInt64(&c.stats.ResyncRuns, 1)
	specs := c.desiredFlows(sw, new(auditBuffers))
	sw.ResyncFrom(specs)
	atomic.AddInt64(&c.stats.ReinstalledFlows, int64(len(specs)))
}
