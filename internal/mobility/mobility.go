// Package mobility generates deterministic client-movement schedules
// for the emulator: which client moves to which attachment zone, and
// when, all on the virtual clock.
//
// The package is deliberately mechanism-free — it knows nothing about
// netem links, switches, or controllers. A Schedule is just an ordered
// list of handover events; the testbed supplies the apply function that
// re-homes the client's access link and re-steers its flows
// (testbed.RehomeClient). Keeping the model pure makes every run
// replayable: the same seed and config produce the same schedule, byte
// for byte, independent of what the handovers do to the network.
//
// Two models are provided:
//
//   - Waypoints: a trace-driven schedule, events supplied by the caller
//     (e.g. parsed from a mobility trace) and validated/ordered here;
//   - RandomWalk: a seeded generator in which clients hop between zones
//     at jittered intervals — the steady-churn workload the mobility
//     experiment drives.
package mobility

import (
	"fmt"
	"sort"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// Event is one handover: at offset At from the run's start, client
// Client moves to zone To. Client and To are small dense indices whose
// meaning belongs to the caller (the testbed maps Client to a mobile
// host and To to a gNB).
type Event struct {
	Client int
	To     int
	At     time.Duration
}

// Schedule is an ordered list of handover events (non-decreasing At).
type Schedule []Event

// Waypoints builds a trace-driven schedule from caller-supplied events.
// Events are stably sorted by At, so same-instant events keep their
// trace order. Negative offsets are rejected.
func Waypoints(events []Event) (Schedule, error) {
	s := make(Schedule, len(events))
	copy(s, events)
	for i, e := range s {
		if e.At < 0 {
			return nil, fmt.Errorf("mobility: event %d has negative offset %v", i, e.At)
		}
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].At < s[j].At })
	return s, nil
}

// WalkConfig parameterizes RandomWalk.
type WalkConfig struct {
	// Clients is the number of mobile clients (indices 0..Clients-1).
	Clients int
	// Zones is the number of attachment zones (indices 0..Zones-1).
	// Every client starts in zone 0; a hop always targets a zone
	// different from the client's current one.
	Zones int
	// Handovers is the total number of events to generate.
	Handovers int
	// Start is the offset of the first event.
	Start time.Duration
	// Interval is the mean spacing between consecutive events; actual
	// spacing is jittered uniformly in [0.5, 1.5)×Interval.
	Interval time.Duration
	// Seed feeds the deterministic generator.
	Seed int64
}

// RandomWalk generates a seeded random-walk schedule: at each step a
// uniformly chosen client hops to a uniformly chosen zone other than
// its current one. The walk is fully determined by cfg — the generator
// is vclock.Rand, so the schedule is identical across platforms and
// runs.
func RandomWalk(cfg WalkConfig) Schedule {
	if cfg.Clients <= 0 || cfg.Zones < 2 || cfg.Handovers <= 0 {
		return nil
	}
	rng := vclock.NewRand(cfg.Seed)
	zone := make([]int, cfg.Clients) // all start in zone 0
	s := make(Schedule, 0, cfg.Handovers)
	at := cfg.Start
	for i := 0; i < cfg.Handovers; i++ {
		c := int(rng.Float64() * float64(cfg.Clients))
		if c >= cfg.Clients {
			c = cfg.Clients - 1
		}
		// Pick among the Zones-1 zones that are not the current one.
		z := int(rng.Float64() * float64(cfg.Zones-1))
		if z >= cfg.Zones-1 {
			z = cfg.Zones - 2
		}
		if z >= zone[c] {
			z++
		}
		s = append(s, Event{Client: c, To: z, At: at})
		zone[c] = z
		at += time.Duration((0.5 + rng.Float64()) * float64(cfg.Interval))
	}
	return s
}

// Span returns the offset of the last event, or zero for an empty
// schedule.
func (s Schedule) Span() time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1].At
}

// Run plays the schedule on clk: it sleeps to each event's offset
// (relative to the moment Run is called) and invokes apply. Events are
// applied strictly in order from a single goroutine, so apply needs no
// internal ordering. Run returns after the last event's apply.
func (s Schedule) Run(clk *vclock.Virtual, apply func(Event)) {
	start := clk.Now()
	for _, e := range s {
		if wait := e.At - clk.Since(start); wait > 0 {
			clk.Sleep(wait)
		}
		apply(e)
	}
}
