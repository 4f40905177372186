package core

import (
	"sync/atomic"
	"time"
)

// breakerState is one cluster's circuit breaker. The breaker watches
// whole-deployment outcomes: BreakerThreshold consecutive failures trip
// it, a tripped cluster is skipped during candidate gathering until
// BreakerCooldown passes, and the first deployment after the cooldown
// is the half-open probe — success closes the breaker, failure re-opens
// it for another cooldown.
type breakerState struct {
	consecFails int
	tripped     bool
	openUntil   time.Time
}

// breakerAllows reports whether the cluster may receive deployments
// right now. An expired cooldown admits the half-open probe.
func (c *Controller) breakerAllows(clusterName string) bool {
	if c.cfg.BreakerThreshold <= 0 {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.breakers[clusterName]
	if !ok || !st.tripped {
		return true
	}
	return !c.clk.Now().Before(st.openUntil)
}

// breakerRecord feeds one deployment outcome into the cluster's breaker.
// Trips and recoveries change which clusters candidate gathering may
// use, so both invalidate the candidate snapshot cache.
func (c *Controller) breakerRecord(clusterName string, success bool) {
	if c.cfg.BreakerThreshold <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.breakers[clusterName]
	if !ok {
		st = &breakerState{}
		c.breakers[clusterName] = st
	}
	if success {
		if st.tripped {
			st.tripped = false
			atomic.AddInt64(&c.stats.BreakerRecoveries, 1)
			c.cands.bump()
		}
		st.consecFails = 0
		return
	}
	st.consecFails++
	switch {
	case st.tripped:
		// Failed half-open probe: another cooldown.
		st.openUntil = c.clk.Now().Add(c.cfg.BreakerCooldown)
	case st.consecFails >= c.cfg.BreakerThreshold:
		st.tripped = true
		st.openUntil = c.clk.Now().Add(c.cfg.BreakerCooldown)
		atomic.AddInt64(&c.stats.BreakerTrips, 1)
		c.cands.bump()
	}
}
