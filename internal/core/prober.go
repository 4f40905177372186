package core

import (
	"bytes"
	"slices"
	"strings"
	"sync/atomic"

	"github.com/c3lab/transparentedge/internal/cluster"
)

// healthProbeLoop periodically re-checks every instance the FlowMemory
// references. Installed redirect flows outlive the instance behind
// them: if a container crashes or is scaled down externally, clients
// with warm switch flows or FlowMemory entries keep being rewritten
// toward a dead port. The prober evicts such instances from the memory
// and drops their deployment records so the very next packet-in goes
// through the full dispatch pipeline and redeploys.
func (c *Controller) healthProbeLoop() {
	for {
		c.clk.Sleep(c.cfg.HealthProbeInterval)
		c.healthProbe()
	}
}

// compareInstances orders instances by cluster, then by rendered
// address, rendering both addresses into stack buffers.
func compareInstances(a, b cluster.Instance) int {
	if c := strings.Compare(a.Cluster, b.Cluster); c != 0 {
		return c
	}
	var ab, bb [len("255.255.255.255:65535")]byte
	return bytes.Compare(a.Addr.AppendTo(ab[:0]), b.Addr.AppendTo(bb[:0]))
}

// healthProbe runs one probing round.
func (c *Controller) healthProbe() {
	entries := c.fm.Entries()
	if len(entries) == 0 {
		return
	}
	// Probe each distinct instance once, in a stable order.
	byInst := make(map[cluster.Instance][]Entry)
	for _, e := range entries {
		if e.Instance.Cluster == "origin" || e.Instance.Addr == e.Service {
			continue // the cloud origin is not ours to health-check
		}
		byInst[e.Instance] = append(byInst[e.Instance], e)
	}
	insts := make([]cluster.Instance, 0, len(byInst))
	for inst := range byInst {
		insts = append(insts, inst)
	}
	slices.SortFunc(insts, compareInstances)
	for _, inst := range insts {
		if c.probePort(inst.Addr) {
			continue
		}
		atomic.AddInt64(&c.stats.HealthEvictions, 1)
		for _, e := range byInst[inst] {
			c.fm.Forget(e.Client, e.Service)
		}
		// Drop the deployment record: the cached result points at a dead
		// instance, and keeping it would blackhole the redeploy path.
		svcName := byInst[inst][0].SvcName
		c.mu.Lock()
		delete(c.deployments, deployKey{service: svcName, cluster: inst.Cluster})
		c.mu.Unlock()
		// Cached candidate snapshots may still reflect the dead instance.
		c.cands.bump()
	}
}
