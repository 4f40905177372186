package core

import (
	"sync"

	"github.com/c3lab/transparentedge/internal/netem"
)

// clientTable is the Dispatcher's per-client state: the last-seen
// client locations and the in-flight packet-in dedup set. Both live
// under one lock so the top of packetIn takes it once: track the
// client's location and claim the flow key together.
type clientTable struct {
	mu      sync.Mutex
	clients map[netem.IP]ClientLocation
	pending map[flowKey]bool
	// moves counts the clients first seen and the clients seen behind
	// another switch than before: the changes to which switch each
	// client's redirects belong on, the only part of a location the
	// reconciler's desired state reads.
	moves uint64
}

func newClientTable() *clientTable {
	return &clientTable{
		clients: make(map[netem.IP]ClientLocation),
		pending: make(map[flowKey]bool),
	}
}

// trackAndClaim records the client's ingress location and claims the
// flow key for dispatch in one critical section. It reports whether the
// key was already claimed (a concurrent packet-in — e.g. a SYN
// retransmission — is being dispatched; the caller must drop the
// duplicate and let the original held packet be released).
func (t *clientTable) trackAndClaim(key flowKey, loc ClientLocation) (dup bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setLocked(key.client, loc)
	if t.pending[key] {
		return true
	}
	t.pending[key] = true
	return false
}

// release drops the pending claim taken by trackAndClaim.
func (t *clientTable) release(key flowKey) {
	t.mu.Lock()
	delete(t.pending, key)
	t.mu.Unlock()
}

// track records the client's location without claiming a flow key.
func (t *clientTable) track(ip netem.IP, loc ClientLocation) {
	t.mu.Lock()
	t.setLocked(ip, loc)
	t.mu.Unlock()
}

// setLocked records a location, counting a move when the client was
// unknown or behind another switch. Callers hold t.mu.
func (t *clientTable) setLocked(ip netem.IP, loc ClientLocation) {
	if old, ok := t.clients[ip]; !ok || old.Switch != loc.Switch {
		t.moves++
	}
	t.clients[ip] = loc
}

// moveCount reads moves (see there).
func (t *clientTable) moveCount() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.moves
}

// location returns the client's last-seen location.
func (t *clientTable) location(ip netem.IP) (ClientLocation, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	loc, ok := t.clients[ip]
	return loc, ok
}
