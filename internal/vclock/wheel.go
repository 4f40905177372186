package vclock

import (
	"math"
	"math/bits"
)

// The pending-event queue of a Virtual clock: a hierarchical timing
// wheel (Varghese–Lauck scheme 6/7) for the future and one binary heap
// for the present.
//
// Virtual time is an int64 offset in nanoseconds from the clock's base
// instant (event.atNS). The wheel does not index it by nanosecond but
// by tick, atNS >> tickBits: a level-l slot spans 2^(wheelSlotBits·l)
// ticks, and wheelLevels levels cover every tick a non-negative int64
// instant can have, so there is no overflow list (the top level exists
// for that alone: it is reached only 36 years out). cur, the cursor, is
// the tick the queue has advanced to. Every queued event whose tick is
// at or behind the cursor lives in near, a heap ordered by (atNS, seq)
// — the only place in the clock that orders events. Wheel slots, level
// 0 included, hold only ticks ahead of the cursor, as unordered
// intrusive lists threaded through the pooled event records
// (event.next/prev): post and stop there are O(1) pointer moves that
// never allocate, and an event is moved once per level it descends
// plus once into near, however far ahead it was posted.
const (
	// tickBits is the tick width, 2^12 ns ≈ 4 µs: a measured constant
	// (DESIGN.md, "The event queue"), wide enough that a link
	// delay or an arrival gap files on level 0 and reaches near in one
	// move, narrow enough that near holds an event or two in every
	// workload and stays cheap when thousands of timers share 100 µs.
	tickBits = 12

	wheelSlotBits = 8
	wheelSlots    = 1 << wheelSlotBits // 256 slots per level
	wheelMask     = wheelSlots - 1
	wheelLevels   = 7 // 7·8 tick bits + tickBits ≥ 63: every instant ≥ 0
	wheelWords    = wheelSlots / 64

	// nearSlot marks an event resident in the near heap.
	nearSlot = int32(wheelLevels << wheelSlotBits)
)

// wheelList is one slot's intrusive event list.
type wheelList struct {
	head, tail *event
}

func (l *wheelList) append(ev *event) {
	ev.prev = l.tail
	ev.next = nil
	if l.tail != nil {
		l.tail.next = ev
	} else {
		l.head = ev
	}
	l.tail = ev
}

func (l *wheelList) unlink(ev *event) {
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		l.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		l.tail = ev.prev
	}
	ev.next, ev.prev = nil, nil
}

// wheelSched's zero value is an empty queue with the cursor at the
// clock's base instant. Callers hold the clock mutex.
type wheelSched struct {
	// cur is the cursor tick. Invariants: every wheel-resident event's
	// tick is ahead of cur, every near-resident event's is at or behind
	// it, and cur never sits strictly inside the window of a level ≥ 1
	// slot that holds events of the current revolution — advance
	// re-files a slot the moment cur reaches its window start.
	cur int64
	n   int // queued events, near and wheel together

	near eventHeap

	slots [wheelLevels][wheelSlots]wheelList
	occ   [wheelLevels][wheelWords]uint64 // per-level slot occupancy bitmaps
	used  [wheelLevels]int                // occupied slots per level
}

func (w *wheelSched) size() int { return w.n }

func (w *wheelSched) push(ev *event) {
	w.n++
	w.file(ev)
}

// file places ev by its tick's distance from the cursor: at or behind
// it — the cursor's own tick, or an instant between the clock's now and
// an event that was popped and pushed back unfired — into near; otherwise the
// level is the position of the distance's top bit divided down by
// wheelSlotBits and the slot is the matching bit field of the tick.
func (w *wheelSched) file(ev *event) {
	tick := ev.atNS >> tickBits
	delta := tick - w.cur
	if delta <= 0 {
		ev.slot = nearSlot
		w.near.push(ev)
		return
	}
	level := (bits.Len64(uint64(delta)) - 1) / wheelSlotBits
	s := int(tick>>(uint(level)*wheelSlotBits)) & wheelMask
	ev.slot = int32(level<<wheelSlotBits | s)
	ev.index = 0 // queued; stopEvent keys off index < 0
	l := &w.slots[level][s]
	if l.head == nil {
		w.occ[level][s>>6] |= 1 << (uint(s) & 63)
		w.used[level]++
	}
	l.append(ev)
}

// remove takes a queued event out: O(1) on the wheel — what makes Stop
// on a far timer constant-time however many are queued — and a heap
// removal in near.
func (w *wheelSched) remove(ev *event) {
	if ev.slot == nearSlot {
		w.near.remove(ev.index)
	} else {
		level := int(ev.slot) >> wheelSlotBits
		s := int(ev.slot) & wheelMask
		l := &w.slots[level][s]
		l.unlink(ev)
		if l.head == nil {
			w.occ[level][s>>6] &^= 1 << (uint(s) & 63)
			w.used[level]--
		}
		ev.index = -1
	}
	w.n--
}

// nextOcc finds the first occupied slot at or circularly after from,
// scanning the occupancy bitmap. The level must have one.
func nextOcc(bm *[wheelWords]uint64, from int) int {
	wi := from >> 6
	off := uint(from) & 63
	if word := bm[wi] >> off << off; word != 0 {
		return wi<<6 + bits.TrailingZeros64(word)
	}
	for k := 1; ; k++ {
		i := (wi + k) & (wheelWords - 1)
		if bm[i] != 0 {
			return i<<6 + bits.TrailingZeros64(bm[i])
		}
	}
}

// pop removes and returns the (at, seq)-minimal event. Only called with
// size() > 0.
func (w *wheelSched) pop() *event {
	for len(w.near) == 0 {
		w.advance()
	}
	w.n--
	return w.near.pop()
}

// advance moves the cursor to the earliest window start among occupied
// slots and re-files every slot that starts there — several levels can
// tie, and all of the new tick's events must be in near before any of
// them pops. Events of the cursor's new tick go to near; the rest land
// at a strictly lower level, in a slot that starts later, because their
// distance is now below their old slot's width. Called only with near
// empty, so the wheel is not.
func (w *wheelSched) advance() {
	var start [wheelLevels]int64
	var slot [wheelLevels]int
	best := int64(math.MaxInt64)
	for level := range start {
		start[level] = math.MaxInt64
		if w.used[level] > 0 {
			start[level], slot[level] = w.earliest(level)
		}
		if start[level] < best {
			best = start[level]
		}
	}
	w.cur = best
	for level, at := range start {
		if at == best {
			w.refile(level, slot[level])
		}
	}
}

// earliest returns the window start (a tick) and index of the slot on
// an occupied level that the cursor reaches first.
//
// The subtle case is the slot at the cursor's own position on a level
// ≥ 1. If the cursor sits exactly on that slot's window start, the
// contents belong to the current revolution and are due now (an event a
// full revolution out would have had a distance ≥ 2^(8(l+1)) when
// filed, which files one level up), so the scan starts there. If the
// cursor is strictly inside the window, the slot was already re-filed
// when the cursor reached its start; anything in it now was filed later
// with a carry out of the low bits and is one revolution ahead, so the
// scan starts one slot on and finds the own slot last, at distance 256.
// Level 0 has no such case: its slots are one tick wide and the
// cursor's own tick lives in near.
func (w *wheelSched) earliest(level int) (start int64, slot int) {
	shift := uint(level) * wheelSlotBits
	inside := 0
	if w.cur&(int64(1)<<shift-1) != 0 {
		inside = 1
	}
	from := int(w.cur>>shift) + inside
	slot = nextOcc(&w.occ[level], from&wheelMask)
	dist := (slot - from) & wheelMask
	return (w.cur>>shift + int64(inside+dist)) << shift, slot
}

// refile empties one slot whose window start the cursor has reached,
// filing each event again by its remaining distance.
func (w *wheelSched) refile(level, s int) {
	l := &w.slots[level][s]
	ev := l.head
	*l = wheelList{}
	w.occ[level][s>>6] &^= 1 << (uint(s) & 63)
	w.used[level]--
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		w.file(ev)
		ev = next
	}
}
