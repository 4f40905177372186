package kube

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// Timing is the control-plane cost model. Every constant is a median;
// jitter is applied uniformly. The defaults are calibrated so that a
// scale-up of a trivial service through the full pipeline lands around
// the paper's "about three seconds".
type Timing struct {
	// APILatency is the cost of one API request (create/update/get).
	APILatency time.Duration
	// WatchLatency is the propagation delay of one watch event.
	WatchLatency time.Duration
	// ControllerWork is the work-queue + reconcile cost per object in
	// the deployment/replicaset/endpoints controllers.
	ControllerWork time.Duration
	// SchedulerCycle is the scheduling loop period; an unscheduled pod
	// waits on average half of it, plus binding work.
	SchedulerCycle time.Duration
	// KubeletReact is the kubelet's bookkeeping delay before it begins
	// pod setup after seeing a bound pod.
	KubeletReact time.Duration
	// SandboxSetup is the pod sandbox (pause container + cgroups)
	// creation cost, paid once per pod before containers start.
	SandboxSetup time.Duration
	// ProbePeriod is the readiness probe interval; probe workers start
	// with a uniform splay of one period.
	ProbePeriod time.Duration
	// JitterFrac scales uniform jitter on all of the above.
	JitterFrac float64
}

// DefaultTiming returns the calibrated control-plane cost model.
func DefaultTiming() Timing {
	return Timing{
		APILatency:     3 * time.Millisecond,
		WatchLatency:   25 * time.Millisecond,
		ControllerWork: 20 * time.Millisecond,
		SchedulerCycle: 250 * time.Millisecond,
		KubeletReact:   330 * time.Millisecond,
		SandboxSetup:   700 * time.Millisecond,
		ProbePeriod:    time.Second,
		JitterFrac:     0.10,
	}
}

// EventType classifies watch events.
type EventType int

// Watch event types.
const (
	Added EventType = iota
	Modified
	Deleted
)

// String renders the event type.
func (t EventType) String() string {
	switch t {
	case Added:
		return "ADDED"
	case Modified:
		return "MODIFIED"
	case Deleted:
		return "DELETED"
	}
	return "UNKNOWN"
}

// Event is one watch notification.
type Event struct {
	Type   EventType
	Object Object
}

// Watch is a subscription to one object kind. An event carries the
// stored object itself, shared with the store and every other watcher:
// read it, never modify it (DeepCopy it first).
type Watch struct {
	api     *API
	kind    string
	events  *vclock.Mailbox[Event] // nil when fn takes the events
	fn      func(Event)
	stopped bool // set by Stop, under api.mu, before it closes events
}

// Recv blocks for the next event; ok is false after Stop.
func (w *Watch) Recv() (Event, bool) { return w.events.Recv() }

// RecvTimeout is Recv with a deadline.
func (w *Watch) RecvTimeout(d time.Duration) (Event, bool) { return w.events.RecvTimeout(d) }

// Stop cancels the subscription, discarding queued and in-flight events.
func (w *Watch) Stop() {
	w.api.mu.Lock()
	w.stopped = true
	ws := w.api.watchers[w.kind]
	for i, other := range ws {
		if other == w {
			w.api.watchers[w.kind] = append(ws[:i:i], ws[i+1:]...)
			break
		}
	}
	w.api.mu.Unlock()
	w.events.Close()
	for {
		if _, ok := w.events.TryRecv(); !ok {
			return
		}
	}
}

// API is the emulated API server: a versioned object store with watch
// fan-out and per-request latency. Create and Update store a private copy
// that nothing edits afterwards, so the package reads stored objects in
// place; Get and List hand out copies.
type API struct {
	clk    *vclock.Virtual
	rng    *vclock.Rand
	timing Timing

	mu       sync.Mutex
	objects  map[string]map[string]Object
	rv       uint64
	watchers map[string][]*Watch
}

// NewAPI returns an empty API server.
func NewAPI(clk *vclock.Virtual, seed int64, timing Timing) *API {
	return &API{
		clk:      clk,
		rng:      vclock.NewRand(seed),
		timing:   timing,
		objects:  make(map[string]map[string]Object),
		watchers: make(map[string][]*Watch),
	}
}

// Clock exposes the API server's time source.
func (a *API) Clock() *vclock.Virtual { return a.clk }

// Timing exposes the control-plane cost model.
func (a *API) Timing() Timing { return a.timing }

func (a *API) requestLatency() {
	a.clk.Sleep(a.rng.Jitter(a.timing.APILatency, a.timing.JitterFrac))
}

// Create stores a new object. It fails if the name is taken.
func (a *API) Create(obj Object) error {
	a.requestLatency()
	a.mu.Lock()
	kind := obj.Kind()
	byName := a.objects[kind]
	if byName == nil {
		byName = make(map[string]Object)
		a.objects[kind] = byName
	}
	name := obj.Meta().Name
	if name == "" {
		a.mu.Unlock()
		return fmt.Errorf("kube: %s without a name", kind)
	}
	if _, dup := byName[name]; dup {
		a.mu.Unlock()
		return fmt.Errorf("kube: %s %q already exists", kind, name)
	}
	a.rv++
	stored := obj.DeepCopy()
	stored.Meta().ResourceVersion = a.rv
	stored.Meta().CreatedAt = a.clk.Now()
	byName[name] = stored
	a.notifyLocked(Event{Type: Added, Object: stored})
	a.mu.Unlock()
	// Reflect the server-assigned fields back to the caller's copy.
	obj.Meta().ResourceVersion = stored.Meta().ResourceVersion
	obj.Meta().CreatedAt = stored.Meta().CreatedAt
	return nil
}

// ErrConflict is returned by Update when the caller's copy is stale
// (optimistic concurrency, as in the real API server).
var ErrConflict = errors.New("kube: resource version conflict")

// Update replaces an existing object. It fails with ErrConflict when the
// stored object changed since the caller read it.
func (a *API) Update(obj Object) error {
	stored := obj.DeepCopy()
	err := a.update(stored) // on failure stored keeps obj's version
	obj.Meta().ResourceVersion = stored.Meta().ResourceVersion
	return err
}

// update is Update for an object the caller hands over: on success the
// store keeps obj itself, and the caller must not touch it again.
func (a *API) update(obj Object) error {
	a.requestLatency()
	a.mu.Lock()
	defer a.mu.Unlock()
	kind := obj.Kind()
	name := obj.Meta().Name
	stored, ok := a.objects[kind][name]
	if !ok {
		return fmt.Errorf("kube: %s %q not found", kind, name)
	}
	if obj.Meta().ResourceVersion != stored.Meta().ResourceVersion {
		return fmt.Errorf("kube: update of %s %q: %w", kind, name, ErrConflict)
	}
	a.rv++
	obj.Meta().ResourceVersion = a.rv
	a.objects[kind][name] = obj
	a.notifyLocked(Event{Type: Modified, Object: obj})
	return nil
}

// Mutate applies fn to a copy of the live object and writes it back,
// retrying on ErrConflict. fn returns false to skip the write. Mutate
// returns false if the object does not exist.
func (a *API) Mutate(kind, name string, fn func(Object) bool) (bool, error) {
	for {
		obj, ok := a.get(kind, name)
		if !ok {
			return false, nil
		}
		obj = obj.DeepCopy()
		if !fn(obj) {
			return true, nil
		}
		err := a.update(obj)
		if err == nil {
			return true, nil
		}
		if !errors.Is(err, ErrConflict) {
			return true, err
		}
	}
}

// Get returns a deep copy of the named object.
func (a *API) Get(kind, name string) (Object, bool) {
	obj, ok := a.get(kind, name)
	if !ok {
		return nil, false
	}
	return obj.DeepCopy(), true
}

// get is Get without the copy: the caller must not modify the object.
func (a *API) get(kind, name string) (Object, bool) {
	a.requestLatency()
	a.mu.Lock()
	defer a.mu.Unlock()
	obj, ok := a.objects[kind][name]
	return obj, ok
}

// List returns deep copies of all objects of kind whose labels match
// selector (nil selector matches all), sorted by name.
func (a *API) List(kind string, selector map[string]string) []Object {
	out := a.listFunc(kind, func(obj Object) bool {
		return selector == nil || matchesSelector(obj.Meta().Labels, selector)
	})
	for i, obj := range out {
		out[i] = obj.DeepCopy()
	}
	return out
}

// listFunc is List with the choice left to keep and without the copies:
// it returns the stored objects keep accepts, sorted by name, and the
// caller must not modify them.
func (a *API) listFunc(kind string, keep func(Object) bool) []Object {
	a.requestLatency()
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []Object
	for _, obj := range a.objects[kind] {
		if keep(obj) {
			out = append(out, obj)
		}
	}
	slices.SortFunc(out, func(x, y Object) int { return strings.Compare(x.Meta().Name, y.Meta().Name) })
	return out
}

// Delete removes the named object.
func (a *API) Delete(kind, name string) error {
	a.requestLatency()
	a.mu.Lock()
	defer a.mu.Unlock()
	obj, ok := a.objects[kind][name]
	if !ok {
		return fmt.Errorf("kube: %s %q not found", kind, name)
	}
	delete(a.objects[kind], name)
	a.rv++
	a.notifyLocked(Event{Type: Deleted, Object: obj})
	return nil
}

// Watch subscribes to kind. The current objects are replayed as Added
// events (the informer list+watch pattern), then live events follow.
func (a *API) Watch(kind string) *Watch {
	w := &Watch{api: a, kind: kind, events: vclock.NewMailbox[Event](a.clk)}
	a.subscribe(w)
	return w
}

// watchInto is Watch into a mailbox that several watches may share:
// their events arrive in the order they were made.
func (a *API) watchInto(kind string, events *vclock.Mailbox[Event]) {
	a.subscribe(&Watch{api: a, kind: kind, events: events})
}

// watchFunc is Watch for a consumer that only enqueues: fn takes each
// event inline on the clock's event loop and must not block.
func (a *API) watchFunc(kind string, fn func(Event)) {
	a.subscribe(&Watch{api: a, kind: kind, fn: fn})
}

func (a *API) subscribe(w *Watch) {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.objects[w.kind]))
	for name := range a.objects[w.kind] {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		a.deliverLocked(w, Event{Type: Added, Object: a.objects[w.kind][name]})
	}
	a.watchers[w.kind] = append(a.watchers[w.kind], w)
}

// notifyLocked fans an event out to all subscribers of its kind.
func (a *API) notifyLocked(ev Event) {
	for _, w := range a.watchers[ev.Object.Kind()] {
		a.deliverLocked(w, ev)
	}
}

// deliverLocked schedules delivery of one event as a clock event: it
// only enqueues, so it needs no goroutine. Per-watcher order holds
// because all deliveries use the same latency and the clock fires
// same-instant events FIFO. A delivery racing Stop is dropped: it reads
// Stop's mark and sends under a.mu (Send never blocks).
func (a *API) deliverLocked(w *Watch, ev Event) {
	a.clk.Post(a.timing.WatchLatency, func() {
		if w.fn != nil {
			w.fn(ev)
			return
		}
		a.mu.Lock()
		if !w.stopped {
			w.events.Send(ev)
		}
		a.mu.Unlock()
	})
}
