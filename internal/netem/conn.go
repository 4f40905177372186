package netem

import (
	"sync"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// Transport tuning. The SYN schedule mirrors conventional TCP initial
// retransmission behaviour (1s, 2s, 4s, ...), which matters for the
// on-demand-deployment experiments: a held first request must survive
// multi-second deployment times.
var (
	synRetryBase = 1 * time.Second
	synRetries   = 6
	dataRTO      = 500 * time.Millisecond
	dataRetries  = 6
)

type connState int

const (
	stateSynSent connState = iota
	stateEstablished
	stateClosed
	stateFailed
)

// Conn is one reliable, message-oriented connection. Each Send transfers
// one application message; the receiver gets messages in order via Recv.
// Reliability is per message: positive acks, retransmission with
// exponential backoff, duplicate suppression, and in-order delivery.
type Conn struct {
	host   *Host
	local  HostPort
	remote HostPort
	connID uint64

	established vclock.Gate

	mu         sync.Mutex
	state      connState
	failErr    error
	synTries   int
	synBackoff time.Duration
	synTimer   vclock.Pending

	sendSeq uint32 // next message sequence to assign (1-based)
	// unacked holds in-flight messages in send order. It is a slice, not
	// a map: connections rarely have more than a couple outstanding, and
	// a slice keeps iteration order deterministic and setup free.
	unacked  []*pendingMsg
	ubuf     [2]*pendingMsg
	recvNext uint32 // next in-order message expected
	// recvBuf holds out-of-order arrivals; it is allocated lazily since
	// in-order delivery (the overwhelmingly common case) never needs it.
	recvBuf map[uint32][]byte
	inbox   vclock.Mailbox[[]byte]
	// serve is the handler of a connection accepted on a served port
	// (nil otherwise, and fixed at creation); stage belongs to it
	// (serve.go).
	serve Handler

	client      bool
	localClosed bool
	peerClosed  bool
	stage       uint8
}

// pendingMsg tracks one unacknowledged message. It owns pkt (each
// transmission sends a clone) until the ack or the connection's death
// releases it; callbacks identify it by seq so a recycled packet is
// never read. Records recycle through pmsgPool, but only when the armed
// retransmission timer was stopped before firing — a record whose timer
// callback may still be in flight is left to the GC so the callback can
// never observe a reused record under the same connection and sequence.
type pendingMsg struct {
	pkt     *Packet
	seq     uint32
	tries   int
	backoff time.Duration
	timer   vclock.Pending
}

var pmsgPool = sync.Pool{New: func() any { return new(pendingMsg) }}

func newConn(h *Host, local, remote HostPort, client bool) *Conn {
	c := &Conn{
		host:     h,
		local:    local,
		remote:   remote,
		client:   client,
		connID:   h.net.nextConnID(),
		sendSeq:  1,
		recvNext: 1,
	}
	c.inbox.Init(h.clk)
	return c
}

// findUnackedLocked returns the index and record of the in-flight
// message with the given sequence, or -1, nil. Callers hold c.mu.
func (c *Conn) findUnackedLocked(seq uint32) (int, *pendingMsg) {
	for i, p := range c.unacked {
		if p.seq == seq {
			return i, p
		}
	}
	return -1, nil
}

// dropUnackedLocked removes the record at index i, preserving order.
// Callers hold c.mu.
func (c *Conn) dropUnackedLocked(i int) {
	copy(c.unacked[i:], c.unacked[i+1:])
	c.unacked[len(c.unacked)-1] = nil
	c.unacked = c.unacked[:len(c.unacked)-1]
}

// retirePendingLocked releases p's packet and recycles the record when
// its timer was provably stopped before firing. Callers hold c.mu and
// have already removed p from c.unacked.
func retirePendingLocked(p *pendingMsg) {
	stopped := p.timer.Stop()
	if p.pkt != nil {
		p.pkt.Release()
		p.pkt = nil
	}
	if stopped {
		*p = pendingMsg{}
		pmsgPool.Put(p)
	}
}

// LocalAddr returns this side's endpoint.
func (c *Conn) LocalAddr() HostPort { return c.local }

// RemoteAddr returns the peer endpoint as seen by this side. Under
// transparent redirection the client's view is the registered cloud
// address even when an edge instance answers.
func (c *Conn) RemoteAddr() HostPort { return c.remote }

// newControlPacket builds a pooled control segment addressed to the peer.
func (c *Conn) newControlPacket(flags TCPFlags) *Packet {
	pkt := NewPacket()
	pkt.Src, pkt.Dst = c.local, c.remote
	pkt.Flags = flags
	pkt.ConnID = c.connID
	return pkt
}

// startHandshake sends the first SYN and arms the retry schedule.
func (c *Conn) startHandshake() {
	c.mu.Lock()
	c.synTries = 1
	c.mu.Unlock()
	c.transmit(c.newControlPacket(FlagSYN))
	c.armSynTimer(synRetryBase)
}

// retrySyn is the Post2 callback of the SYN retransmission timer.
func retrySyn(a, _ any) {
	c := a.(*Conn)
	c.mu.Lock()
	if c.state != stateSynSent {
		c.mu.Unlock()
		return
	}
	if c.synTries >= synRetries {
		c.mu.Unlock()
		c.fail(ErrTimeout)
		return
	}
	c.synTries++
	backoff := c.synBackoff * 2
	c.mu.Unlock()
	c.transmit(c.newControlPacket(FlagSYN))
	c.armSynTimer(backoff)
}

func (c *Conn) armSynTimer(backoff time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != stateSynSent {
		return
	}
	c.synBackoff = backoff
	c.synTimer = c.host.clk.Post2(backoff, retrySyn, c, nil)
}

func (c *Conn) sendSynAck() {
	c.transmit(c.newControlPacket(FlagSYN | FlagACK))
}

// transmit hands a packet to the host's NIC, passing ownership.
func (c *Conn) transmit(pkt *Packet) { c.host.send(pkt) }

// handle processes one inbound packet addressed to this connection. The
// caller retains ownership of pkt; handle only keeps the payload slice.
func (c *Conn) handle(pkt *Packet) {
	switch {
	case pkt.Flags.Has(FlagRST):
		c.mu.Lock()
		inHandshake := c.state == stateSynSent
		c.mu.Unlock()
		if inHandshake {
			c.fail(ErrRefused)
		} else {
			c.fail(ErrReset)
		}

	case pkt.Flags.Has(FlagSYN | FlagACK):
		c.mu.Lock()
		if c.state == stateSynSent {
			c.state = stateEstablished
			c.synTimer.Stop()
		}
		c.mu.Unlock()
		c.established.Open()
		// Ack completes the handshake; duplicates are harmless.
		c.transmit(c.newControlPacket(FlagACK))

	case pkt.Flags.Has(FlagSYN):
		// Duplicate SYN from a client whose SYN-ACK was lost or delayed.
		if !c.client {
			c.sendSynAck()
		}

	case pkt.Flags.Has(FlagFIN):
		c.mu.Lock()
		already := c.peerClosed
		c.peerClosed = true
		c.mu.Unlock()
		if already {
			return
		}
		c.inbox.Close()
		if c.serve != nil && c.inbox.Len() == 0 {
			c.Close() // idle: a FIN mid-request waits for the answer
		}

	case pkt.Flags.Has(FlagPSH):
		c.handleData(pkt)

	case pkt.Flags.Has(FlagACK):
		c.handleAck(pkt)
	}
}

func (c *Conn) handleData(pkt *Packet) {
	// Always ack, even duplicates: the ack may have been lost.
	ack := c.newControlPacket(FlagACK)
	ack.Ack = pkt.Seq
	c.transmit(ack)

	c.mu.Lock()
	if c.peerClosed || c.state == stateFailed || pkt.Seq < c.recvNext {
		c.mu.Unlock()
		return
	}
	if pkt.Seq == c.recvNext {
		// In-order fast path: deliver directly, then drain whatever the
		// arrival unblocked. recvBuf is untouched (and stays nil) unless
		// packets actually arrived out of order.
		first := pkt.Payload
		c.recvNext++
		var ready [][]byte
		for len(c.recvBuf) > 0 {
			payload, ok := c.recvBuf[c.recvNext]
			if !ok {
				break
			}
			delete(c.recvBuf, c.recvNext)
			c.recvNext++
			ready = append(ready, payload)
		}
		c.mu.Unlock()
		if c.serve != nil {
			c.deliver(first, ready)
			return
		}
		c.inbox.Send(first)
		for _, payload := range ready {
			c.inbox.Send(payload)
		}
		return
	}
	if _, dup := c.recvBuf[pkt.Seq]; dup {
		c.mu.Unlock()
		return
	}
	if c.recvBuf == nil {
		c.recvBuf = make(map[uint32][]byte)
	}
	c.recvBuf[pkt.Seq] = pkt.Payload
	c.mu.Unlock()
}

func (c *Conn) handleAck(pkt *Packet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, p := c.findUnackedLocked(pkt.Ack)
	if p == nil {
		return
	}
	c.dropUnackedLocked(i)
	retirePendingLocked(p)
}

// Send transmits one application message reliably. It returns
// immediately; delivery failures surface on a later Send/Recv as
// ErrTimeout via connection failure.
func (c *Conn) Send(payload []byte) error {
	c.mu.Lock()
	switch {
	case c.state == stateFailed:
		err := c.failErr
		c.mu.Unlock()
		return err
	case c.localClosed || c.state == stateClosed:
		c.mu.Unlock()
		return ErrClosed
	case c.state == stateSynSent:
		c.mu.Unlock()
		return ErrClosed
	}
	seq := c.sendSeq
	c.sendSeq++
	pkt := NewPacket()
	pkt.Src, pkt.Dst = c.local, c.remote
	pkt.Flags = FlagPSH
	pkt.Seq = seq
	pkt.Payload = payload
	pkt.ConnID = c.connID
	p := pmsgPool.Get().(*pendingMsg)
	p.pkt, p.seq, p.tries, p.backoff = pkt, seq, 1, dataRTO
	if c.unacked == nil {
		c.unacked = c.ubuf[:0]
	}
	c.unacked = append(c.unacked, p)
	// Arm the retransmission timer while p is still private to this
	// critical section, so a record visible in unacked always carries a
	// live timer handle (the recycling rule depends on Stop's answer).
	p.timer = c.host.clk.Post2(dataRTO, retryData, c, p)
	clone := pkt.Clone()
	c.mu.Unlock()
	c.transmit(clone)
	return nil
}

// retryData is the Post2 callback of a data retransmission timer. It
// checks liveness by sequence number and identity under the connection
// lock before touching the pending message's packet, so a message acked
// (and its record recycled) between firing and locking is never read.
func retryData(a, b any) {
	c := a.(*Conn)
	p := b.(*pendingMsg)
	c.mu.Lock()
	if _, cur := c.findUnackedLocked(p.seq); cur != p || c.state == stateFailed {
		c.mu.Unlock()
		return
	}
	if p.tries >= dataRetries {
		c.mu.Unlock()
		c.fail(ErrTimeout)
		return
	}
	p.tries++
	p.backoff *= 2
	resend := p.pkt.Clone()
	p.timer = c.host.clk.Post2(p.backoff, retryData, c, p)
	c.mu.Unlock()
	c.transmit(resend)
}

// Recv returns the next in-order message. It returns ErrClosed once the
// peer has finished sending, and the failure error if the connection
// broke.
func (c *Conn) Recv() ([]byte, error) {
	payload, ok := c.inbox.Recv()
	if !ok {
		return nil, c.closeReason()
	}
	return payload, nil
}

// RecvTimeout is Recv with a deadline.
func (c *Conn) RecvTimeout(d time.Duration) ([]byte, error) {
	payload, ok := c.inbox.RecvTimeout(d)
	if !ok {
		c.mu.Lock()
		broken := c.state == stateFailed || c.peerClosed
		c.mu.Unlock()
		if broken {
			return nil, c.closeReason()
		}
		return nil, ErrTimeout
	}
	return payload, nil
}

func (c *Conn) closeReason() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == stateFailed {
		return c.failErr
	}
	return ErrClosed
}

// releaseUnackedLocked stops retransmission timers and recycles the
// packets (and, where safe, the records) of all pending messages.
// Callers hold c.mu.
func (c *Conn) releaseUnackedLocked() {
	for i, p := range c.unacked {
		c.unacked[i] = nil
		retirePendingLocked(p)
	}
	c.unacked = c.unacked[:0]
}

// Close sends FIN (best effort) and releases connection state.
func (c *Conn) Close() {
	c.mu.Lock()
	if c.localClosed || c.state == stateFailed {
		c.mu.Unlock()
		return
	}
	c.localClosed = true
	sendFin := c.state == stateEstablished
	c.state = stateClosed
	c.releaseUnackedLocked()
	c.mu.Unlock()
	if sendFin {
		c.transmit(c.newControlPacket(FlagFIN))
	}
	c.host.removeConn(c)
}

// Abort resets the connection immediately, notifying the peer with RST.
func (c *Conn) Abort() {
	c.transmit(c.newControlPacket(FlagRST))
	c.fail(ErrReset)
}

// fail transitions to the failed state and wakes all waiters.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.state == stateFailed {
		c.mu.Unlock()
		return
	}
	c.state = stateFailed
	c.failErr = err
	c.synTimer.Stop()
	c.releaseUnackedLocked()
	c.mu.Unlock()
	c.established.Open()
	c.inbox.Close()
	c.host.removeConn(c)
}

// Err returns the connection's failure error, or nil.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failErr
}

// defunct reports whether the connection can never carry new traffic:
// failed, locally closed, or the peer has finished sending. Hosts use
// it to recognize tuple reuse by fresh SYNs.
func (c *Conn) defunct() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state == stateFailed || c.state == stateClosed || c.localClosed || c.peerClosed
}
