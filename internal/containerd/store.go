package containerd

import (
	"fmt"
	"sync"
	"time"

	"github.com/c3lab/transparentedge/internal/registry"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// Store is the content-addressed image store of one runtime: layers are
// refcounted across images, so removing an image keeps layers other
// images still use, and re-pulling an image only fetches layers that are
// actually missing — the behaviour the paper's Delete phase discussion
// relies on.
type Store struct {
	clk    *vclock.Virtual
	rng    *vclock.Rand
	timing Timing

	mu     sync.Mutex
	layers map[registry.Digest]*layerEntry
	images map[string]registry.Image
	pulls  map[string]*inflightPull
}

type layerEntry struct {
	size int64
	refs int
}

type inflightPull struct {
	done *vclock.Gate
	err  error
}

// NewStore returns an empty image store.
func NewStore(clk *vclock.Virtual, seed int64, timing Timing) *Store {
	return &Store{
		clk:    clk,
		rng:    vclock.NewRand(seed),
		timing: timing,
		layers: make(map[registry.Digest]*layerEntry),
		images: make(map[string]registry.Image),
		pulls:  make(map[string]*inflightPull),
	}
}

// HasImage reports whether ref is fully present.
func (s *Store) HasImage(ref string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.images[ref]
	return ok
}

// Images lists the cached image references.
func (s *Store) Images() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.images))
	for ref := range s.images {
		out = append(out, ref)
	}
	return out
}

// Image returns the cached manifest for ref.
func (s *Store) Image(ref string) (registry.Image, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	im, ok := s.images[ref]
	return im, ok
}

// CachedBytes returns the total size of stored layers.
func (s *Store) CachedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, e := range s.layers {
		total += e.size
	}
	return total
}

// missingLayers returns the layers of im not yet in the store.
func (s *Store) missingLayers(im registry.Image) []registry.Layer {
	s.mu.Lock()
	defer s.mu.Unlock()
	var missing []registry.Layer
	for _, l := range im.Layers {
		if _, ok := s.layers[l.Digest]; !ok {
			missing = append(missing, l)
		}
	}
	return missing
}

// Pull fetches ref from reg, downloading only missing layers, and
// registers the image. Concurrent pulls of the same ref coalesce into
// one download — essential when a deployment burst hits a cold cache.
// It returns the time this caller waited.
func (s *Store) Pull(reg registry.Remote, ref string) (time.Duration, error) {
	start := s.clk.Now()
	s.mu.Lock()
	if _, cached := s.images[ref]; cached {
		s.mu.Unlock()
		return 0, nil
	}
	if fl := s.pulls[ref]; fl != nil {
		s.mu.Unlock()
		fl.done.Wait(s.clk)
		return s.clk.Since(start), fl.err
	}
	fl := &inflightPull{done: vclock.NewGate()}
	s.pulls[ref] = fl
	s.mu.Unlock()

	fl.err = s.doPull(reg, ref)

	s.mu.Lock()
	delete(s.pulls, ref)
	s.mu.Unlock()
	fl.done.Open()
	return s.clk.Since(start), fl.err
}

func (s *Store) doPull(reg registry.Remote, ref string) error {
	im, err := reg.FetchManifest(ref)
	if err != nil {
		return err
	}
	missing := s.missingLayers(im)
	reg.DownloadLayersFor(ref, missing)
	// Unpack the downloaded bytes into the snapshotter.
	if s.timing.ExtractBandwidth > 0 {
		var bytes int64
		for _, l := range missing {
			bytes += l.Size
		}
		extract := time.Duration(float64(bytes) / s.timing.ExtractBandwidth * float64(time.Second))
		s.clk.Sleep(s.rng.Jitter(extract, s.timing.JitterFrac))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, cached := s.images[ref]; cached {
		return nil
	}
	for _, l := range im.Layers {
		e := s.layers[l.Digest]
		if e == nil {
			e = &layerEntry{size: l.Size}
			s.layers[l.Digest] = e
		}
		e.refs++
	}
	s.images[ref] = im
	return nil
}

// RemoveImage deletes ref from the store. Layers shared with other
// images survive; unreferenced layers are deleted.
func (s *Store) RemoveImage(ref string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	im, ok := s.images[ref]
	if !ok {
		return fmt.Errorf("containerd: image %q not in store", ref)
	}
	for _, l := range im.Layers {
		e := s.layers[l.Digest]
		if e == nil {
			continue
		}
		e.refs--
		if e.refs <= 0 {
			delete(s.layers, l.Digest)
		}
	}
	delete(s.images, ref)
	return nil
}

// HasLayer reports whether a layer digest is present (test hook for the
// dedup invariants).
func (s *Store) HasLayer(d registry.Digest) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.layers[d]
	return ok
}
