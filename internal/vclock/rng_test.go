package vclock

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
)

// TestStreamsSeedMatchesFmt: Streams builds "seed/key" with strconv,
// and the stream it seeds is the one the former fmt plus hash/fnv form
// seeded, over random seeds of both signs and fault-stream-shaped keys —
// every fault draw depends on it.
func TestStreamsSeedMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const alphabet = "0123456789.:*>in=- µ"
	for i := 0; i < 5000; i++ {
		seed := rng.Int63() - rng.Int63()
		key := []string{"mod/", "rem/", "in/", "out/", "del/", "flap/", ""}[rng.Intn(7)]
		for n := rng.Intn(40); n > 0; n-- {
			key += string([]rune(alphabet)[rng.Intn(len([]rune(alphabet)))])
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%s", seed, key)
		want := NewRand(int64(h.Sum64() >> 1))
		var s Streams
		if got, w := s.Stream(seed, key).Int63(), want.Int63(); got != w {
			t.Fatalf("Stream(%d, %q) first draw %d, want %d", seed, key, got, w)
		}
	}
}

// TestStreamsKeyed: a key's sequence depends only on the seed and the
// key — the same in two Streams, cached across calls, and unmoved by
// draws on other keys in between.
func TestStreamsKeyed(t *testing.T) {
	var a, b Streams
	if a.Stream(7, "k") != a.Stream(7, "k") {
		t.Fatal("Stream returned a fresh Rand for a cached key")
	}
	for i := 0; i < 100; i++ {
		b.Stream(7, fmt.Sprint("other/", i%5)).Float64()
		if x, y := a.Stream(7, "k").Float64(), b.Stream(7, "k").Float64(); x != y {
			t.Fatalf("draw %d of key k: %v in one Streams, %v in another", i, x, y)
		}
	}
	if a.Stream(7, "k2").Int63() == a.Stream(7, "k3").Int63() {
		t.Error("distinct keys drew the same first value")
	}
	if a.Stream(7, "j").Int63() == b.Stream(8, "j").Int63() {
		t.Error("distinct seeds drew the same first value for one key")
	}
}

// TestStreamsConcurrent: goroutines asking one Streams for the same and
// for different keys at once share one stream per key (run with -race).
func TestStreamsConcurrent(t *testing.T) {
	var s Streams
	var wg sync.WaitGroup
	got := make([]*Rand, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = s.Stream(3, "shared")
			s.Stream(3, fmt.Sprint("own/", i)).Float64()
		}()
	}
	wg.Wait()
	for i, r := range got {
		if r != got[0] {
			t.Fatalf("goroutine %d got its own stream for a shared key", i)
		}
	}
}
