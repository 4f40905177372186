package core

import (
	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/openflow"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// handlePacketIn feeds one packet-in to the controller and blocks until
// the punt has run to completion — claim dropped, held packet released
// — so tests can drive the event-driven path from clock goroutines.
func (c *Controller) handlePacketIn(sw *openflow.Switch, pin openflow.PacketIn) {
	done := vclock.NewGate()
	c.packetIn(sw, pin, done.Open)
	done.Wait(c.clk)
}

// dispatchWait runs one dispatch to its end on the calling goroutine.
func (c *Controller) dispatchWait(sw *openflow.Switch, svc *Service, client netem.IP) (cluster.Instance, bool) {
	zone := sw.DeviceName()
	inst, ready, decision := c.dispatch(svc, client, zone)
	if ready {
		return inst, true
	}
	return c.finishDispatch(svc, client, zone, decision)
}

// pendingClaims counts the flow keys still claimed by in-flight punts.
func (c *Controller) pendingClaims() int {
	c.clients.mu.Lock()
	defer c.clients.mu.Unlock()
	return len(c.clients.pending)
}
