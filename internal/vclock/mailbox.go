package vclock

import (
	"sync"
	"time"
)

// Mailbox is an unbounded FIFO queue whose blocking receive parks the
// goroutine in a clock-aware way. It is the channel replacement for
// emulated components: packet queues, controller message queues, watch
// streams. Steady-state Send/Recv pairs allocate nothing: the queue and
// the waiter list use inline backing arrays for the common small case,
// drained queues reuse their backing store, and receivers park on pooled
// waiters. A zero Mailbox plus Init is ready for use, so it embeds by
// value inside connection-like structs.
type Mailbox[T any] struct {
	clk     *Virtual
	mu      sync.Mutex
	queue   []T
	head    int // queue[head:] holds the pending values
	qbuf    [2]T
	waiters []*mboxWaiter[T]
	wbuf    [2]*mboxWaiter[T]
	free    []*mboxWaiter[T]
	// w0 is the inline waiter record for the common single-receiver
	// case; w0busy guards it. Overflow receivers draw from free or
	// allocate.
	w0     mboxWaiter[T]
	w0busy bool
	closed bool
}

type mboxWaiter[T any] struct {
	w        *waiter
	val      T
	ok       bool
	settled  bool // value delivered, timeout fired, or mailbox closed
	timedOut bool // the timeout callback was the waker
}

// NewMailbox returns an empty mailbox using clk for blocking.
func NewMailbox[T any](clk *Virtual) *Mailbox[T] {
	m := &Mailbox[T]{}
	m.Init(clk)
	return m
}

// Init prepares a zero Mailbox for use with clk. It must be called (or
// the mailbox built by NewMailbox) before any other method.
func (m *Mailbox[T]) Init(clk *Virtual) { m.clk = clk }

// Send enqueues v, waking one blocked receiver if any. Send on a closed
// mailbox panics, mirroring send-on-closed-channel.
func (m *Mailbox[T]) Send(v T) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		panic("vclock: send on closed Mailbox")
	}
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		copy(m.waiters, m.waiters[1:])
		m.waiters[len(m.waiters)-1] = nil
		m.waiters = m.waiters[:len(m.waiters)-1]
		w.val, w.ok, w.settled = v, true, true
		m.mu.Unlock()
		w.w.wake()
		return
	}
	if m.queue == nil {
		m.queue = m.qbuf[:0]
	} else if m.head == len(m.queue) {
		m.queue = m.queue[:0]
		m.head = 0
	}
	m.queue = append(m.queue, v)
	m.mu.Unlock()
}

// Recv dequeues the next value, blocking until one arrives. ok is false
// if the mailbox was closed and drained.
func (m *Mailbox[T]) Recv() (v T, ok bool) {
	return m.recv(-1)
}

// RecvTimeout is Recv with a deadline of d clock time. ok is false on
// timeout or on closed-and-drained.
func (m *Mailbox[T]) RecvTimeout(d time.Duration) (v T, ok bool) {
	return m.recv(d)
}

// TryRecv dequeues the next value without blocking.
func (m *Mailbox[T]) TryRecv() (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.head == len(m.queue) {
		return v, false
	}
	return m.popLocked(), true
}

// Peek returns the next value without dequeuing it.
func (m *Mailbox[T]) Peek() (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.head == len(m.queue) {
		return v, false
	}
	return m.queue[m.head], true
}

// popLocked removes and returns the head value. Callers hold m.mu and
// have checked the queue is non-empty.
func (m *Mailbox[T]) popLocked() T {
	var zero T
	v := m.queue[m.head]
	m.queue[m.head] = zero
	m.head++
	return v
}

// getWaiterLocked returns a waiter record: the inline slot if idle, a
// recycled one, or a fresh allocation. Callers hold m.mu.
func (m *Mailbox[T]) getWaiterLocked() *mboxWaiter[T] {
	if !m.w0busy {
		m.w0busy = true
		return &m.w0
	}
	if n := len(m.free); n > 0 {
		w := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		return w
	}
	return &mboxWaiter[T]{}
}

// putWaiterLocked recycles a waiter record. Callers hold m.mu and have
// established that no stale timeout callback can still touch it.
func (m *Mailbox[T]) putWaiterLocked(w *mboxWaiter[T]) {
	var zero T
	w.w = nil
	w.val = zero
	w.timedOut = false
	if w == &m.w0 {
		m.w0busy = false
		return
	}
	m.free = append(m.free, w)
}

func (m *Mailbox[T]) recv(timeout time.Duration) (v T, ok bool) {
	m.mu.Lock()
	if m.head != len(m.queue) {
		v = m.popLocked()
		m.mu.Unlock()
		return v, true
	}
	if m.closed {
		m.mu.Unlock()
		return v, false
	}
	w := m.getWaiterLocked()
	w.ok, w.settled = false, false
	w.w = m.clk.newWaiter()
	if m.waiters == nil {
		m.waiters = m.wbuf[:0]
	}
	m.waiters = append(m.waiters, w)
	m.mu.Unlock()

	var pending Pending
	if timeout >= 0 {
		pending = m.clk.Post(timeout, func() {
			m.mu.Lock()
			if w.settled {
				m.mu.Unlock()
				return
			}
			w.settled = true // ok stays false: timed out
			w.timedOut = true
			m.removeWaiterLocked(w)
			m.mu.Unlock()
			w.w.wake()
		})
	}
	w.w.wait()
	stopped := true
	if timeout >= 0 {
		stopped = pending.Stop()
	}
	v, ok = w.val, w.ok

	// The waiter is out of m.waiters on every path (delivery and Close
	// pop it, timeout removes it). It can be recycled unless an already
	// fired timeout callback that was not our waker may still hold a
	// reference; in that rare race the record is retired — the callback
	// will observe settled and never touch it again.
	m.mu.Lock()
	w.w.release()
	if stopped || w.timedOut {
		m.putWaiterLocked(w)
	}
	m.mu.Unlock()
	return v, ok
}

// removeWaiterLocked drops w from the waiting list. Callers hold m.mu.
func (m *Mailbox[T]) removeWaiterLocked(w *mboxWaiter[T]) {
	for i, cur := range m.waiters {
		if cur == w {
			copy(m.waiters[i:], m.waiters[i+1:])
			m.waiters[len(m.waiters)-1] = nil
			m.waiters = m.waiters[:len(m.waiters)-1]
			return
		}
	}
}

// Close marks the mailbox closed; blocked receivers return ok=false once
// the queue drains. Closing twice is a no-op. Waking happens with the
// lock held — wake never blocks — so no waiter-list copy is needed.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for i, w := range m.waiters {
		m.waiters[i] = nil
		if !w.settled {
			w.settled = true
			w.w.wake()
		}
	}
	m.waiters = nil
	m.mu.Unlock()
}

// Len reports the number of queued values.
func (m *Mailbox[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue) - m.head
}
