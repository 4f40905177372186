package vclock

// eventHeap is a binary min-heap ordered by (atNS, seq): wheelSched's
// near set, and through less the one place that decides the order
// events fire in. The sift routines are hand-rolled rather than going
// through container/heap, whose interface-based API costs an indirect
// call per comparison and swap; event.index tracks each event's
// position so a removal finds it without a search.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].atNS != h[j].atNS {
		return h[i].atNS < h[j].atNS
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

// push appends ev and restores the heap property.
func (h *eventHeap) push(ev *event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.up(ev.index)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *event {
	old := *h
	n := len(old) - 1
	old.swap(0, n)
	ev := old[n]
	old[n] = nil
	ev.index = -1
	*h = old[:n]
	if n > 0 {
		(*h).down(0)
	}
	return ev
}

// remove deletes the event at index i. The tail element that replaces
// it needs to sift in exactly one direction: up when it sorts before
// its new parent, down otherwise. Deciding with one comparison keeps
// the invariant visible at the call site — the old shape sifted down
// and then retried upward whenever nothing had moved, paying a wasted
// child scan on every up-bound removal.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if i != n {
		old.swap(i, n)
	}
	old[n].index = -1
	old[n] = nil
	*h = old[:n]
	if i < n {
		if i > 0 && (*h).less(i, (i-1)/2) {
			(*h).up(i)
		} else {
			(*h).down(i)
		}
	}
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down reports whether the element moved.
func (h eventHeap) down(i0 int) bool {
	i, n := i0, len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		j := left
		if right := left + 1; right < n && h.less(right, left) {
			j = right
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}
