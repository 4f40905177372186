package netem

import "fmt"

// This file implements host re-homing: atomically moving a host's
// access link from one attachment point to another, the netem half of a
// 5G handover. The mobility subsystem moves a live client between gNB
// switches with Rehome; the SDN controller then re-steers its rewrite
// flows (core.Controller.Handover).
//
// Re-homing reuses the "cut the cable" semantics of Link.SetDown:
// packets already serialized onto the old link still arrive, packets
// offered from the cut on are dropped and counted, and the transport's
// retransmission recovers anything lost in the gap — which is exactly
// what keeps TCP sessions alive across the move. Switch-side state —
// the microflow caches — is invalidated by the route updates the caller
// makes (AddRoute bumps the switch's epoch).

// Rehome atomically moves host h's access link: the current link is
// severed (marked down, so in-flight packets still arrive but nothing
// new crosses), both ports are detached, and a fresh link is created
// between the host's NIC and newPeer with cfg. The old Link stays in
// the network's accounting — its Stats (including DownDrops for
// packets lost in the handover gap) remain readable.
//
// Rehome panics when h has no access link or newPeer is already
// connected — both are orchestration bugs, not runtime conditions.
func (n *Network) Rehome(h *Host, newPeer *Port, cfg LinkConfig) *Link {
	nic := h.nic
	old := nic.link
	if old == nil {
		panic(fmt.Sprintf("netem: Rehome: host %q has no access link", h.name))
	}
	if newPeer.link != nil {
		panic(fmt.Sprintf("netem: Rehome: target port %d on %q already connected",
			newPeer.ID, newPeer.Dev.DeviceName()))
	}
	// Cut the old cable: a packet still offered to it is dropped and
	// counted as a down-drop.
	old.SetDown(true)
	far := nic.peer
	nic.link, nic.peer = nil, nil
	far.link, far.peer = nil, nil
	return n.Connect(nic, newPeer, cfg)
}
