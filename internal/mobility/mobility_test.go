package mobility

import (
	"fmt"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

func TestRandomWalkDeterministicAndValid(t *testing.T) {
	cfg := WalkConfig{
		Clients:   4,
		Zones:     3,
		Handovers: 64,
		Start:     time.Second,
		Interval:  500 * time.Millisecond,
		Seed:      7,
	}
	a, b := RandomWalk(cfg), RandomWalk(cfg)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different schedules")
	}
	cfg.Seed = 8
	if fmt.Sprint(a) == fmt.Sprint(RandomWalk(cfg)) {
		t.Fatal("different seeds produced the same schedule")
	}

	zone := make([]int, cfg.Clients)
	last := time.Duration(0)
	for i, e := range a {
		if e.Client < 0 || e.Client >= cfg.Clients {
			t.Fatalf("event %d: client %d out of range", i, e.Client)
		}
		if e.To < 0 || e.To >= cfg.Zones {
			t.Fatalf("event %d: zone %d out of range", i, e.To)
		}
		if e.To == zone[e.Client] {
			t.Fatalf("event %d: client %d 'moved' to its current zone %d", i, e.Client, e.To)
		}
		zone[e.Client] = e.To
		if e.At < last {
			t.Fatalf("event %d: offset %v before predecessor %v", i, e.At, last)
		}
		last = e.At
	}
	if a[0].At != cfg.Start {
		t.Fatalf("first event at %v, want %v", a[0].At, cfg.Start)
	}
}

func TestRandomWalkDegenerate(t *testing.T) {
	if s := RandomWalk(WalkConfig{Clients: 0, Zones: 2, Handovers: 1}); s != nil {
		t.Fatal("no clients should yield a nil schedule")
	}
	if s := RandomWalk(WalkConfig{Clients: 1, Zones: 1, Handovers: 1}); s != nil {
		t.Fatal("one zone should yield a nil schedule (nowhere to move)")
	}
}

func TestScheduleRun(t *testing.T) {
	s := Schedule{
		{Client: 0, To: 1, At: 100 * time.Millisecond},
		{Client: 1, To: 1, At: 100 * time.Millisecond},
		{Client: 0, To: 0, At: 450 * time.Millisecond},
	}
	if s.Span() != 450*time.Millisecond {
		t.Fatalf("Span = %v, want 450ms", s.Span())
	}
	var got []string
	clk := vclock.New()
	clk.Run(func() {
		start := clk.Now()
		s.Run(clk, func(e Event) {
			got = append(got, fmt.Sprintf("c%d->z%d@%v", e.Client, e.To, clk.Since(start)))
		})
	})
	want := "[c0->z1@100ms c1->z1@100ms c0->z0@450ms]"
	if fmt.Sprint(got) != want {
		t.Fatalf("applied events %v, want %v", got, want)
	}
}
