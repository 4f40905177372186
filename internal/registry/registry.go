// Package registry models container image registries: layered images,
// manifests, and the network cost of pulling them.
//
// Fig. 13 of the paper measures pull times from Docker Hub and Google
// Container Registry against a private registry on the local network.
// The model reproduces the effects that figure depends on: per-pull
// authentication, a manifest round trip, per-layer request/verification
// overhead (in bounded parallel waves), and aggregate download
// bandwidth. Layer deduplication happens in the containerd image store,
// which only asks the registry for layers it is missing.
package registry

import (
	"fmt"
	"sync"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// Digest identifies a layer's content.
type Digest string

// Layer is one content-addressed image layer.
type Layer struct {
	Digest Digest
	// Size is the compressed transfer size in bytes.
	Size int64
}

// Image is a named manifest: an ordered list of layers.
type Image struct {
	// Ref is the image reference, e.g. "nginx:1.23.2".
	Ref    string
	Layers []Layer
}

// TotalSize sums the transfer sizes of all layers.
func (im Image) TotalSize() int64 {
	var total int64
	for _, l := range im.Layers {
		total += l.Size
	}
	return total
}

// LayerDigest derives a deterministic content digest for synthetic
// layers. Layers shared between images (same base) must be constructed
// with the same digest so deduplication applies, exactly as on real
// registries.
func LayerDigest(name string, index int) Digest {
	return Digest(fmt.Sprintf("sha256:%s-%02d", name, index))
}

// Profile captures the network characteristics of one registry.
type Profile struct {
	// Name labels the profile in results ("Docker Hub", "private", ...).
	Name string
	// AuthTime is the token handshake cost paid once per pull.
	AuthTime time.Duration
	// RTT is one request round trip (manifest fetch, layer request).
	RTT time.Duration
	// Bandwidth is the aggregate download rate in bytes per second.
	Bandwidth float64
	// PerLayerOverhead is the fixed per-layer request + verification
	// cost, paid per parallel wave.
	PerLayerOverhead time.Duration
	// MaxParallelLayers bounds concurrent layer downloads
	// (containerd defaults to 3).
	MaxParallelLayers int
	// JitterFrac scales the uniform jitter applied to each cost.
	JitterFrac float64
}

// MiB is a byte-size convenience for profile and image construction.
const MiB = 1 << 20

// KiB is a byte-size convenience for profile and image construction.
const KiB = 1 << 10

// DockerHub models pulling over the WAN from Docker Hub.
func DockerHub() Profile {
	return Profile{
		Name:              "Docker Hub",
		AuthTime:          700 * time.Millisecond,
		RTT:               120 * time.Millisecond,
		Bandwidth:         75 * MiB,
		PerLayerOverhead:  180 * time.Millisecond,
		MaxParallelLayers: 3,
		JitterFrac:        0.10,
	}
}

// GCR models pulling from Google Container Registry (the ResNet image).
func GCR() Profile {
	return Profile{
		Name:              "GCR",
		AuthTime:          650 * time.Millisecond,
		RTT:               110 * time.Millisecond,
		Bandwidth:         85 * MiB,
		PerLayerOverhead:  170 * time.Millisecond,
		MaxParallelLayers: 3,
		JitterFrac:        0.10,
	}
}

// Private models a registry on the same local network as the edge
// cluster; the paper reports pulls improve by about 1.5–2 s.
func Private() Profile {
	return Profile{
		Name:              "private",
		AuthTime:          60 * time.Millisecond,
		RTT:               2 * time.Millisecond,
		Bandwidth:         110 * MiB,
		PerLayerOverhead:  25 * time.Millisecond,
		MaxParallelLayers: 3,
		JitterFrac:        0.05,
	}
}

// Registry is one image registry instance.
type Registry struct {
	clk     *vclock.Virtual
	rng     *vclock.Rand
	profile Profile

	mu     sync.Mutex
	images map[string]Image
}

// New returns an empty registry with the given network profile.
func New(clk *vclock.Virtual, seed int64, profile Profile) *Registry {
	return &Registry{
		clk:     clk,
		rng:     vclock.NewRand(seed),
		profile: profile,
		images:  make(map[string]Image),
	}
}

// Profile returns the registry's network profile.
func (r *Registry) Profile() Profile { return r.profile }

// Push publishes an image (instantaneous: publishing cost is not part of
// any evaluated path).
func (r *Registry) Push(im Image) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.images[im.Ref] = im
}

// Has reports whether ref is published.
func (r *Registry) Has(ref string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.images[ref]
	return ok
}

// jitter applies the profile's jitter to d.
func (r *Registry) jitter(d time.Duration) time.Duration {
	return r.rng.Jitter(d, r.profile.JitterFrac)
}

// FetchManifest performs authentication plus the manifest round trip and
// returns the image description. The call blocks for the modelled time.
func (r *Registry) FetchManifest(ref string) (Image, error) {
	r.mu.Lock()
	im, ok := r.images[ref]
	r.mu.Unlock()
	r.clk.Sleep(r.jitter(r.profile.AuthTime + r.profile.RTT))
	if !ok {
		return Image{}, fmt.Errorf("registry %s: manifest for %q not found", r.profile.Name, ref)
	}
	return im, nil
}

// DownloadLayers blocks for the time needed to transfer the given layers:
// per-layer request overhead in MaxParallelLayers-wide waves plus the
// aggregate bandwidth cost of the total bytes.
func (r *Registry) DownloadLayers(layers []Layer) time.Duration {
	if len(layers) == 0 {
		return 0
	}
	parallel := r.profile.MaxParallelLayers
	if parallel <= 0 {
		parallel = 1
	}
	waves := (len(layers) + parallel - 1) / parallel
	fixed := time.Duration(waves) * (r.profile.PerLayerOverhead + r.profile.RTT)

	var bytes int64
	for _, l := range layers {
		bytes += l.Size
	}
	var transfer time.Duration
	if r.profile.Bandwidth > 0 {
		transfer = time.Duration(float64(bytes) / r.profile.Bandwidth * float64(time.Second))
	}
	d := r.jitter(fixed + transfer)
	r.clk.Sleep(d)
	return d
}

// EstimatePull returns the modelled median pull duration for the given
// layers without blocking — used by schedulers that weigh deployment
// cost against redirecting farther away.
func (r *Registry) EstimatePull(layers []Layer) time.Duration {
	if len(layers) == 0 {
		return r.profile.AuthTime + r.profile.RTT
	}
	parallel := r.profile.MaxParallelLayers
	if parallel <= 0 {
		parallel = 1
	}
	waves := (len(layers) + parallel - 1) / parallel
	var bytes int64
	for _, l := range layers {
		bytes += l.Size
	}
	var transfer time.Duration
	if r.profile.Bandwidth > 0 {
		transfer = time.Duration(float64(bytes) / r.profile.Bandwidth * float64(time.Second))
	}
	return r.profile.AuthTime + r.profile.RTT +
		time.Duration(waves)*(r.profile.PerLayerOverhead+r.profile.RTT) + transfer
}
