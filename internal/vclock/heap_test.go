package vclock

import (
	"testing"
	"time"
)

// mkEvents builds standalone events at Epoch+d for direct heap tests.
func mkEvents(ds ...time.Duration) []*event {
	evs := make([]*event, len(ds))
	for i, d := range ds {
		evs[i] = &event{atNS: int64(d), seq: uint64(i + 1)}
	}
	return evs
}

func (h eventHeap) check(t *testing.T) {
	t.Helper()
	for i := range h {
		if h[i].index != i {
			t.Fatalf("h[%d].index = %d", i, h[i].index)
		}
		if i > 0 && h.less(i, (i-1)/2) {
			t.Fatalf("heap property violated at %d: %v < parent %v", i, h[i].atNS, h[(i-1)/2].atNS)
		}
	}
}

// TestHeapRemoveSiftsUp pins the up-bound removal case: the tail
// element replacing a removed node can sort before the node's parent,
// so remove must sift it upward (a down-only remove corrupts the heap).
func TestHeapRemoveSiftsUp(t *testing.T) {
	var h eventHeap
	// Push order yields the tree
	//        1
	//     10    2
	//   11  12 30 40
	//  13
	// so removing index 4 (12) promotes the tail 13... build then pick
	// the removal that forces an up-sift: remove 11 at index 3; tail 13
	// stays put; instead craft tail 3 by pushing it last.
	evs := mkEvents(1, 10, 2, 11, 12, 30, 40, 13, 3)
	for _, ev := range evs {
		h.push(ev)
	}
	h.check(t)
	// evs[8] (=3) sits in the left subtree under 10; removing a node in
	// that subtree hands its slot to the current tail. Remove the node
	// holding 11: its replacement must climb above 10.
	h.remove(evs[3].index)
	h.check(t)
	if evs[3].index != -1 {
		t.Fatalf("removed event index = %d, want -1", evs[3].index)
	}
	var got []time.Duration
	for len(h) > 0 {
		got = append(got, time.Duration(h.pop().atNS))
	}
	want := []time.Duration{1, 2, 3, 10, 12, 13, 30, 40}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestHeapRemoveRandomized cross-checks remove against pop order on
// seeded random schedules, covering both sift directions and ties.
func TestHeapRemoveRandomized(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := NewRand(seed)
		var h eventHeap
		live := map[*event]bool{}
		var seq uint64
		for op := 0; op < 2000; op++ {
			if len(h) == 0 || rng.Intn(3) != 0 {
				seq++
				ev := &event{atNS: int64(rng.Intn(50)), seq: seq}
				h.push(ev)
				live[ev] = true
			} else {
				victim := h[rng.Intn(len(h))]
				h.remove(victim.index)
				delete(live, victim)
			}
		}
		h.check(t)
		var prev *event
		for len(h) > 0 {
			ev := h.pop()
			if !live[ev] {
				t.Fatal("popped an event that was removed")
			}
			delete(live, ev)
			if prev != nil && (ev.atNS < prev.atNS || (ev.atNS == prev.atNS && ev.seq < prev.seq)) {
				t.Fatalf("seed %d: pop out of order: (%v,%d) after (%v,%d)", seed, ev.atNS, ev.seq, prev.atNS, prev.seq)
			}
			prev = ev
		}
		if len(live) != 0 {
			t.Fatalf("seed %d: %d events lost", seed, len(live))
		}
	}
}
