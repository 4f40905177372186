package kube

import (
	"errors"
	"fmt"
	"sort"
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

// Watch is a subscription to one object kind.
type Watch struct {
	api    *API
	kind   string
	events *vclock.Mailbox[Event]
}

// Recv blocks for the next event; ok is false after Stop.
func (w *Watch) Recv() (Event, bool) { return w.events.Recv() }

// RecvTimeout is Recv with a deadline.
func (w *Watch) RecvTimeout(d time.Duration) (Event, bool) { return w.events.RecvTimeout(d) }

// Stop cancels the subscription and discards queued events.
func (w *Watch) Stop() {
	w.api.mu.Lock()
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
// fan-out and per-request latency.
type API struct {
	clk    vclock.Clock
	rng    *vclock.Rand
	timing Timing

	mu       sync.Mutex
	objects  map[string]map[string]Object
	rv       uint64
	watchers map[string][]*Watch
}

// NewAPI returns an empty API server.
func NewAPI(clk vclock.Clock, seed int64, timing Timing) *API {
	return &API{
		clk:      clk,
		rng:      vclock.NewRand(seed),
		timing:   timing,
		objects:  make(map[string]map[string]Object),
		watchers: make(map[string][]*Watch),
	}
}

// Clock exposes the API server's time source.
func (a *API) Clock() vclock.Clock { return a.clk }

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
	a.notifyLocked(Event{Type: Added, Object: stored.DeepCopy()})
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
	stored = obj.DeepCopy()
	stored.Meta().ResourceVersion = a.rv
	a.objects[kind][name] = stored
	a.notifyLocked(Event{Type: Modified, Object: stored.DeepCopy()})
	obj.Meta().ResourceVersion = a.rv
	return nil
}

// Mutate applies fn to the live object and writes it back, retrying on
// ErrConflict. fn returns false to skip the write. Mutate returns false
// if the object does not exist.
func (a *API) Mutate(kind, name string, fn func(Object) bool) (bool, error) {
	for {
		obj, ok := a.Get(kind, name)
		if !ok {
			return false, nil
		}
		if !fn(obj) {
			return true, nil
		}
		err := a.Update(obj)
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
	a.requestLatency()
	a.mu.Lock()
	defer a.mu.Unlock()
	obj, ok := a.objects[kind][name]
	if !ok {
		return nil, false
	}
	return obj.DeepCopy(), true
}

// List returns deep copies of all objects of kind whose labels match
// selector (nil selector matches all), sorted by name.
func (a *API) List(kind string, selector map[string]string) []Object {
	return a.listFunc(kind, func(obj Object) bool {
		return selector == nil || matchesSelector(obj.Meta().Labels, selector)
	})
}

// listFunc is List with the choice left to keep, which sees the stored
// object: only what it accepts is copied. keep must neither retain nor
// modify its argument.
func (a *API) listFunc(kind string, keep func(Object) bool) []Object {
	a.requestLatency()
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []Object
	for _, obj := range a.objects[kind] {
		if keep(obj) {
			out = append(out, obj.DeepCopy())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Meta().Name < out[j].Meta().Name })
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
	a.notifyLocked(Event{Type: Deleted, Object: obj.DeepCopy()})
	return nil
}

// Watch subscribes to kind. The current objects are replayed as Added
// events (the informer list+watch pattern), then live events follow.
func (a *API) Watch(kind string) *Watch {
	w := &Watch{api: a, kind: kind, events: vclock.NewMailbox[Event](a.clk)}
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.objects[kind]))
	for name := range a.objects[kind] {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ev := Event{Type: Added, Object: a.objects[kind][name].DeepCopy()}
		a.deliverLocked(w, ev)
	}
	a.watchers[kind] = append(a.watchers[kind], w)
	return w
}

// notifyLocked fans an event out to all subscribers of its kind.
func (a *API) notifyLocked(ev Event) {
	for _, w := range a.watchers[ev.Object.Kind()] {
		a.deliverLocked(w, ev)
	}
}

// deliverLocked schedules delayed delivery of one event, preserving
// per-watcher ordering because all deliveries use the same latency and
// the clock fires same-instant events FIFO.
func (a *API) deliverLocked(w *Watch, ev Event) {
	a.clk.AfterFunc(a.timing.WatchLatency, func() {
		defer func() {
			// The watcher may race Stop with an in-flight delivery;
			// sending to a closed mailbox is acceptable to drop.
			recover()
		}()
		w.events.Send(ev)
	})
}
