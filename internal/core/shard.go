package core

import (
	"sync"

	"github.com/c3lab/transparentedge/internal/netem"
)

// numShards partitions the controller's per-client state. Packet-ins
// from distinct clients hash to distinct shards with high probability,
// so they proceed without contending on a shared lock. A power of two
// keeps the index computation a mask.
const numShards = 64

// FNV-1a constants (64-bit).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvByte folds one byte into an FNV-1a state.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvUint32 folds a big-endian uint32 into an FNV-1a state.
func fnvUint32(h uint64, v uint32) uint64 {
	h = fnvByte(h, byte(v>>24))
	h = fnvByte(h, byte(v>>16))
	h = fnvByte(h, byte(v>>8))
	return fnvByte(h, byte(v))
}

// fnvString folds a string into an FNV-1a state.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// hashFlowKey hashes a (client, service) flow key for shard selection.
func hashFlowKey(k flowKey) uint64 {
	h := fnvUint32(fnvOffset64, uint32(k.client))
	h = fnvUint32(h, uint32(k.service.IP))
	h = fnvByte(h, byte(k.service.Port>>8))
	return fnvByte(h, byte(k.service.Port))
}

// hashIP hashes a client address for shard selection.
func hashIP(ip netem.IP) uint64 { return fnvUint32(fnvOffset64, uint32(ip)) }

// clientShard is one partition of the Dispatcher's per-client state:
// the last-seen client locations and the in-flight packet-in dedup set.
// Both live in the same shard so the top of packetIn takes exactly
// one lock: track the client's location and claim the flow key together.
type clientShard struct {
	mu      sync.Mutex
	clients map[netem.IP]ClientLocation
	pending map[flowKey]bool
}

// clientTable shards client tracking and pending-dedup by client
// address. A flow key's shard is its client's shard, so a location
// update and a pending claim for one packet-in share a critical section.
type clientTable struct {
	shards [numShards]clientShard
}

func newClientTable() *clientTable {
	t := &clientTable{}
	for i := range t.shards {
		t.shards[i].clients = make(map[netem.IP]ClientLocation)
		t.shards[i].pending = make(map[flowKey]bool)
	}
	return t
}

func (t *clientTable) shardFor(ip netem.IP) *clientShard {
	return &t.shards[hashIP(ip)&(numShards-1)]
}

// trackAndClaim records the client's ingress location and claims the
// flow key for dispatch in one shard critical section. It reports
// whether the key was already claimed (a concurrent packet-in — e.g. a
// SYN retransmission — is being dispatched; the caller must drop the
// duplicate and let the original held packet be released).
func (t *clientTable) trackAndClaim(key flowKey, loc ClientLocation) (dup bool) {
	s := t.shardFor(key.client)
	s.mu.Lock()
	s.clients[key.client] = loc
	if s.pending[key] {
		s.mu.Unlock()
		return true
	}
	s.pending[key] = true
	s.mu.Unlock()
	return false
}

// release drops the pending claim taken by trackAndClaim.
func (t *clientTable) release(key flowKey) {
	s := t.shardFor(key.client)
	s.mu.Lock()
	delete(s.pending, key)
	s.mu.Unlock()
}

// track records the client's location without claiming a flow key.
func (t *clientTable) track(ip netem.IP, loc ClientLocation) {
	s := t.shardFor(ip)
	s.mu.Lock()
	s.clients[ip] = loc
	s.mu.Unlock()
}

// location returns the client's last-seen location.
func (t *clientTable) location(ip netem.IP) (ClientLocation, bool) {
	s := t.shardFor(ip)
	s.mu.Lock()
	loc, ok := s.clients[ip]
	s.mu.Unlock()
	return loc, ok
}
