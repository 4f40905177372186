package vclock

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"
)

// refQueue is the oracle the pending-event queue is held to: a slice
// kept sorted by (atNS, seq). It shares no code with wheelSched or
// eventHeap — both are the subject — and is slow on purpose: insertion
// is a binary search and a copy, removal a linear scan.
type refQueue []*event

func (q *refQueue) push(ev *event) {
	s := *q
	i := sort.Search(len(s), func(i int) bool {
		return s[i].atNS > ev.atNS || (s[i].atNS == ev.atNS && s[i].seq > ev.seq)
	})
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = ev
	*q = s
}

func (q *refQueue) pop() *event {
	ev := (*q)[0]
	*q = (*q)[1:]
	return ev
}

func (q *refQueue) remove(ev *event) {
	s := *q
	for i := range s {
		if s[i] == ev {
			*q = append(s[:i], s[i+1:]...)
			return
		}
	}
	panic("refQueue: remove of an event that is not queued")
}

// queueDiff applies one operation sequence to a wheelSched and to the
// reference and fails on the first disagreement: every pop must return
// the same event and the sizes must agree after every operation.
type queueDiff struct {
	t testing.TB
	// stamp hands out event records exactly as production does
	// (getEventAbsLocked: freelist, seq, firing instant); it never runs.
	stamp *Virtual
	w     *wheelSched
	ref   refQueue
	// now is the instant of the last fired event: the lower bound of
	// every legal push, as offNS is for a Virtual.
	now  int64
	live []*event // queued events in push order, for remove-k-th
	ops  int
}

func newQueueDiff(t testing.TB) *queueDiff {
	return &queueDiff{t: t, stamp: New(), w: new(wheelSched)}
}

// latestNS is the latest firing instant a Virtual produces: one below
// math.MaxInt64. Declared here, not borrowed from virtual.go: the
// oracle was written against the nanosecond wheel it now outlives and
// compiles unchanged against that commit, which has no such constant.
const latestNS = math.MaxInt64 - 1

func (q *queueDiff) check(op string) {
	q.t.Helper()
	q.ops++
	if got, want := q.w.size(), len(q.ref); got != want {
		q.t.Fatalf("op %d (%s): size %d, reference %d", q.ops, op, got, want)
	}
}

// push queues an event d after now, saturating like the clock does.
func (q *queueDiff) push(d int64) {
	at := q.now + d
	if at < q.now || at > latestNS {
		at = latestNS
	}
	q.pushAt(at)
}

func (q *queueDiff) pushAt(at int64) {
	ev := q.stamp.getEventAbsLocked(at, evPost2)
	q.w.push(ev)
	q.ref.push(ev)
	q.live = append(q.live, ev)
	q.check(fmt.Sprintf("push @%d seq %d", at, ev.seq))
}

func (q *queueDiff) unlive(ev *event) {
	for i, l := range q.live {
		if l == ev {
			q.live = append(q.live[:i], q.live[i+1:]...)
			return
		}
	}
}

// take pops both queues and compares; the event is not fired yet.
func (q *queueDiff) take() *event {
	q.t.Helper()
	got, want := q.w.pop(), q.ref.pop()
	if got != want {
		q.t.Fatalf("op %d (pop): got (@%d, seq %d), reference (@%d, seq %d)",
			q.ops+1, got.atNS, got.seq, want.atNS, want.seq)
	}
	if got.index >= 0 {
		q.t.Fatalf("op %d (pop): popped event still marked queued (index %d)", q.ops+1, got.index)
	}
	q.unlive(got)
	q.check("pop")
	return got
}

// pop fires the earliest event, advancing now to it.
func (q *queueDiff) pop() {
	q.t.Helper()
	if len(q.ref) == 0 {
		return
	}
	q.now = q.take().atNS
}

// remove cancels the k-th live event (modulo the live count).
func (q *queueDiff) remove(k int) {
	q.t.Helper()
	if len(q.live) == 0 {
		return
	}
	ev := q.live[k%len(q.live)]
	q.w.remove(ev)
	q.ref.remove(ev)
	if ev.index >= 0 {
		q.t.Fatalf("op %d (remove): removed event still marked queued (index %d)", q.ops+1, ev.index)
	}
	q.unlive(ev)
	q.check(fmt.Sprintf("remove @%d seq %d", ev.atNS, ev.seq))
}

// requeue puts a popped, unfired event back: the queue accepts a push
// of an event it has already handed out.
func (q *queueDiff) requeue(ev *event) {
	q.t.Helper()
	q.w.push(ev)
	q.ref.push(ev)
	q.live = append(q.live, ev)
	q.check("requeue")
}

// holdMerge pins a contract of the queue rather than a caller: a push
// at or behind the cursor is legal and files into near (wheelSched.file's
// delta <= 0, which costs no code). The earliest event is popped
// but not fired, which moves the cursor to its tick while now stays
// behind; records are pushed at instants between now and the held
// event — at or behind the cursor — and a second pop fires the earlier
// of the two and pushes the other back. fracs place the records: 0 is
// now, 255 the held instant.
func (q *queueDiff) holdMerge(fracs []byte) {
	q.t.Helper()
	if len(q.ref) == 0 {
		return
	}
	held := q.take()
	span := held.atNS - q.now
	for _, f := range fracs {
		q.pushAt(q.now + span/255*int64(f) + span%255*int64(f)/255)
	}
	fire := held
	if len(q.ref) > 0 {
		p := q.take()
		back := p
		if p.atNS < held.atNS || (p.atNS == held.atNS && p.seq < held.seq) {
			fire, back = p, held
		}
		q.requeue(back)
	}
	q.now = fire.atNS
}

// drain pops everything left, so a schedule's tail is compared too.
func (q *queueDiff) drain() {
	q.t.Helper()
	for len(q.ref) > 0 {
		q.pop()
	}
}

// runQueueProgram decodes data into queue operations and applies them.
// One opcode byte per operation, low three bits the operation, high
// five a small operand:
//
//	0,1,2  push, computed delay: the next byte is a bit position s
//	       (mod 63); the operand (mod 7) picks the delay class
//	         0  same instant            1  2^s          2  2^s − 1
//	         3  2^s + 1                 4  first instant of the next
//	         2^s-aligned block          5  last instant of the current
//	         block                      6  second instant of the next
//	       so every tick width and wheel level a build could choose has
//	       its boundary, its boundary ± 1 ns and its interior covered,
//	       up to the saturated horizon and beyond
//	3      push, literal delay: a uvarint follows
//	4,5    pop (fire the earliest event)
//	6      remove the k-th live event: the next byte is k
//	7      hold-and-merge (see holdMerge): operand (mod 4) records, one
//	       placement byte each
//
// A truncated operation ends the program; whatever is still queued is
// then drained, so every pushed event is compared on its way out.
func runQueueProgram(t testing.TB, data []byte) {
	q := newQueueDiff(t)
	// next consumes n operand bytes, or ends the program if it is
	// shorter than that.
	next := func(n int) []byte {
		if len(data) < n {
			data = nil
			return nil
		}
		b := data[:n]
		data = data[n:]
		return b
	}
	for len(data) > 0 {
		op, arg := data[0]&7, int(data[0]>>3)
		data = data[1:]
		switch op {
		case 0, 1, 2:
			b := next(1)
			if b == nil {
				break
			}
			s := uint(b[0]) % 63
			block := int64(1) << s
			ahead := (q.now>>s+1)<<s - q.now // to the next 2^s-aligned instant; may wrap, push saturates
			q.push([7]int64{0, block, block - 1, block + 1, ahead, ahead - 1, ahead + 1}[arg%7])
		case 3:
			d, n := binary.Uvarint(data)
			if n <= 0 {
				data = nil
				break
			}
			data = data[n:]
			if d > math.MaxInt64 {
				d = math.MaxInt64
			}
			q.push(int64(d))
		case 4, 5:
			q.pop()
		case 6:
			if b := next(1); b != nil {
				q.remove(int(b[0]))
			}
		case 7:
			if n := arg % 4; n == 0 {
				q.holdMerge(nil)
			} else if b := next(n); b != nil {
				q.holdMerge(b)
			}
		}
	}
	q.drain()
}

// FuzzEventQueue is the pending-event queue's differential oracle. The
// seed corpus under testdata/fuzz/FuzzEventQueue holds the schedules of
// the wheel's edge tests (revolution ambiguity, one instant reached
// from every level, cancel during a cascade, timers past the wheel's
// span) and of the cases the tick-grained queue can get wrong (dense
// tick, tick boundaries, behind-cursor merges), so plain `go test` runs
// them as unit cases; `make fuzz-smoke` mutates from there.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runQueueProgram(t, data) })
}

// TestEventQueueRandomPrograms runs the oracle over seeded random
// programs long enough to fill several wheel levels at once — the
// corpus cases are short and targeted; this is the volume.
func TestEventQueueRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := NewRand(seed)
		prog := make([]byte, 6000)
		for i := range prog {
			prog[i] = byte(rng.Intn(256))
		}
		runQueueProgram(t, prog)
	}
}
