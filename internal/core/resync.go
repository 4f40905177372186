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

// desiredGen versions what desiredFlows reads: the service registry
// (copy-on-write, so its pointer is its version), the FlowMemory's set
// of mappings, and which switch each client is behind. Nothing else it
// reads can change.
type desiredGen struct {
	tables *svcTables
	memory uint64
	moves  uint64
}

func (c *Controller) desiredGen() desiredGen {
	return desiredGen{tables: c.svc.Load(), memory: c.fm.generation(), moves: c.clients.moveCount()}
}

// cleanAudit is what a switch's last audit that found nothing to
// repair read: the table at one version, the desired state at one
// generation. While both still hold, an audit would find nothing again.
type cleanAudit struct {
	table   uint64
	desired desiredGen
}

// auditSwitch runs one reconciliation pass against sw: orphans are
// deleted first (this also clears stale-action entries for a match the
// memory now maps elsewhere), then missing rules are re-installed. It
// reports whether it skipped the diff:
//
// An audit whose table version and desired generation both equal its
// switch's last clean audit's stops after the flow-stats round trip:
// the table and the desired state are the ones that audit found equal.
// The generation is read after the round trip, at the instant the full
// audit would compute the desired state, so a mapping remembered while
// the request was in flight is seen.
//
// The live table is snapshotted before the desired state. Any flow
// installed concurrently between the two snapshots therefore shows up
// in desired but not in the snapshot and is installed a second time —
// a benign duplicate (identical match, priority, and actions) that
// classification treats as one rule — never as a false orphan: a
// flow's memory entry exists before the flow is installed, so every
// flow in the early snapshot has its justification visible to the late
// snapshot, and everything the audit deletes is genuinely unjustified.
func (c *Controller) auditSwitch(sw *openflow.Switch) (skipped bool) {
	atomic.AddInt64(&c.stats.ResyncRuns, 1)
	var gen desiredGen
	deletes, installs, version, fresh := c.diffSwitch(sw, func() (uint64, bool) {
		gen = c.desiredGen()
		c.mu.Lock()
		last, ok := c.clean[sw]
		c.mu.Unlock()
		return last.table, ok && last.desired == gen
	})
	if !fresh {
		return true
	}
	if c.cfg.DisableFlowMemory {
		// Redirects are not derivable without the memory: leave them to
		// their idle timeouts.
		deletes = slices.DeleteFunc(deletes, func(spec openflow.FlowSpec) bool {
			return spec.Priority != puntPriority
		})
	}
	c.mu.Lock()
	if len(deletes) == 0 && len(installs) == 0 {
		c.clean[sw] = cleanAudit{table: version, desired: gen}
		c.mu.Unlock()
		return false
	}
	delete(c.clean, sw)
	c.mu.Unlock()
	// The table was read in install order; the deletes go down in
	// FlowTable's, so that the bundle is the one a sorted read gave.
	slices.SortStableFunc(deletes, compareFlows)
	deleted := sw.ApplyBundle(deletes, installs)
	atomic.AddInt64(&c.stats.OrphanFlowsRemoved, int64(deleted))
	atomic.AddInt64(&c.stats.ReinstalledFlows, int64(len(installs)))
	return false
}

// compareFlows is FlowTable's order less its install-order tiebreak:
// priority descending, then match field by field in the order
// Match.String renders them, wildcards first.
func compareFlows(a, b openflow.FlowSpec) int {
	x, y := a.Match, b.Match
	return cmp.Or(cmp.Compare(b.Priority, a.Priority),
		cmp.Compare(x.InPort, y.InPort), cmp.Compare(x.SrcIP, y.SrcIP), cmp.Compare(x.SrcPort, y.SrcPort),
		cmp.Compare(x.DstIP, y.DstIP), cmp.Compare(x.DstPort, y.DstPort))
}

// diffSwitch reads sw's table, then the desired state, and diffs them,
// in the buffers the last audit left — or in fresh ones while another
// audit, asleep in its flow-stats read, holds those. since is passed to
// the table read: when the read reports the table unchanged (fresh
// false), nothing was diffed.
func (c *Controller) diffSwitch(sw *openflow.Switch, since func() (uint64, bool)) (orphans, missing []openflow.FlowSpec, version uint64, fresh bool) {
	buf := c.audit.Swap(nil)
	if buf == nil {
		buf = &auditBuffers{want: make(map[openflow.FlowID]bool)}
	}
	defer c.audit.Store(buf)
	buf.actual, version, fresh = sw.AppendTableSince(buf.actual[:0], since)
	if !fresh {
		return nil, nil, version, false
	}
	orphans, missing = diffFlows(buf.actual, c.desiredFlows(sw, buf), buf.want)
	return orphans, missing, version, true
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
// use it to assert post-chaos convergence. It always diffs: the skip
// auditSwitch takes is what it checks.
func (c *Controller) AuditDiff(sw *openflow.Switch) int {
	orphans, missing, _, _ := c.diffSwitch(sw, nil)
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
	c.mu.Lock()
	delete(c.clean, sw)
	c.mu.Unlock()
	specs := c.desiredFlows(sw, new(auditBuffers))
	sw.ResyncFrom(specs)
	atomic.AddInt64(&c.stats.ReinstalledFlows, int64(len(specs)))
}
