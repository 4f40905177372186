package vclock

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"
)

// Rand is a mutex-guarded deterministic random source. Emulated
// components draw jitter from a seeded Rand so that repeated runs of a
// scenario produce identical traces.
type Rand struct {
	mu sync.Mutex
	r  *rand.Rand
}

// NewRand returns a deterministic source seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.Float64()
}

// Intn returns a uniform value in [0,n).
func (r *Rand) Intn(n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.Intn(n)
}

// Int63 returns a uniform non-negative 63-bit value.
func (r *Rand) Int63() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.Int63()
}

// NormFloat64 returns a standard-normally distributed value.
func (r *Rand) NormFloat64() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.NormFloat64()
}

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (r *Rand) ExpFloat64() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.ExpFloat64()
}

// Jitter returns base scaled by a factor drawn uniformly from
// [1-frac, 1+frac]; frac is clamped to [0,1]. Jitter(0, f) is always 0.
func (r *Rand) Jitter(base time.Duration, frac float64) time.Duration {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	f := 1 + frac*(2*r.Float64()-1)
	return time.Duration(float64(base) * f)
}

// LogNormal returns a log-normally distributed duration with the given
// median and sigma (shape). Startup and processing latencies in the
// timing model use this: long right tails, never negative.
func (r *Rand) LogNormal(median time.Duration, sigma float64) time.Duration {
	if median <= 0 {
		return 0
	}
	n := r.NormFloat64()
	return time.Duration(float64(median) * math.Exp(sigma*n))
}

// Streams hands out one deterministic Rand per key, so that the draws a
// key sees depend only on the seed, the key and how often that key drew
// before — not on how draws for other keys interleave with it. The zero
// value is ready to use; a Streams is safe for concurrent use.
type Streams struct {
	mu sync.Mutex
	m  map[string]*Rand
}

// Stream returns key's stream, seeding it on first use with the FNV-1a
// hash of "seed/key" halved to stay non-negative. Every call for one key
// must pass the same seed.
func (s *Streams) Stream(seed int64, key string) *Rand {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.m[key]; ok {
		return r
	}
	if s.m == nil {
		s.m = make(map[string]*Rand)
	}
	b := strconv.AppendInt(make([]byte, 0, 21+len(key)), seed, 10)
	b = append(append(b, '/'), key...)
	h := fnv.New64a()
	h.Write(b)
	r := NewRand(int64(h.Sum64() >> 1))
	s.m[key] = r
	return r
}
