// Package trace synthesizes and analyzes the evaluation workload.
//
// The paper replays the public five-minute bigFlows.pcap capture,
// extracts TCP conversations to port 80, and keeps destination addresses
// with at least 20 requests — yielding 42 edge services receiving 1708
// requests. That capture is not available offline, so Generate produces
// a statistically equivalent synthetic workload (heavy-tailed popularity,
// front-loaded arrivals causing the burst of deployments Fig. 10 shows),
// and WritePcap/FromPcap round-trip it through a real .pcap file so the
// paper's extraction methodology is exercised verbatim.
package trace

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
)

// Config parameterizes workload synthesis.
type Config struct {
	// Duration is the capture length (paper: five minutes).
	Duration time.Duration
	// HotServices is the number of edge services kept by the ≥20-requests
	// filter (paper: 42).
	HotServices int
	// TotalRequests is the number of requests across hot services
	// (paper: 1708).
	TotalRequests int
	// MinPerService is the minimum requests per hot service (paper: 20).
	MinPerService int
	// NoiseServices receive fewer than MinPerService requests each and
	// must be dropped by the filter.
	NoiseServices int
	// NoiseRequestsEach is the request count per noise service.
	NoiseRequestsEach int
	// NonHTTPConversations adds port-443 conversations the port filter
	// must drop.
	NonHTTPConversations int
	// Clients is the number of client hosts (paper: 20 Raspberry Pis).
	Clients int
	// ZipfS is the popularity skew exponent across hot services.
	ZipfS float64
	// FrontLoadFrac is the fraction of arrivals drawn from the early
	// FrontLoadWindow instead of the whole capture, reproducing the
	// deployment burst at the start of the trace.
	FrontLoadFrac float64
	// FrontLoadWindow is the length of the early arrival window.
	FrontLoadWindow time.Duration
	// Seed makes generation reproducible.
	Seed int64
}

// DefaultBigFlows returns the configuration matching the paper's
// filtered workload: 42 services, 1708 requests, five minutes.
func DefaultBigFlows() Config {
	return Config{
		Duration:             5 * time.Minute,
		HotServices:          42,
		TotalRequests:        1708,
		MinPerService:        20,
		NoiseServices:        25,
		NoiseRequestsEach:    4,
		NonHTTPConversations: 120,
		Clients:              20,
		ZipfS:                1.1,
		FrontLoadFrac:        0.12,
		FrontLoadWindow:      25 * time.Second,
		Seed:                 7,
	}
}

// Request is one client request in the workload.
type Request struct {
	// At is the offset from the start of the capture.
	At time.Duration
	// Service indexes the hot service (0-based, most popular first).
	Service int
	// Client indexes the requesting client host.
	Client int
}

// Trace is a generated or recovered workload.
type Trace struct {
	Config Config
	// Requests holds the hot-service requests sorted by arrival time.
	Requests []Request
	// Counts holds requests per hot service (index = service).
	Counts []int
}

// hotServiceBase is the address block for hot edge services
// (TEST-NET-3, "public" addresses in the capture).
var hotServiceBase = netem.ParseIP("203.0.113.0")

// noiseServiceBase is the address block for below-threshold services.
var noiseServiceBase = netem.ParseIP("198.51.100.0")

// clientBase is the address block for client hosts.
var clientBase = netem.ParseIP("192.168.1.0")

// ServiceAddr returns the registered public endpoint of hot service i.
func ServiceAddr(i int) netem.HostPort {
	return netem.HostPort{IP: hotServiceBase + netem.IP(i) + 1, Port: 80}
}

// ClientAddr returns the address of client host i.
func ClientAddr(i int) netem.IP { return clientBase + netem.IP(i) + 10 }

// Generate synthesizes a workload from cfg. The result is deterministic
// in cfg.Seed and always satisfies the exact totals in cfg.
func Generate(cfg Config) *Trace {
	var reqs []Request
	counts := draw(&cfg, func(r Request) { reqs = append(reqs, r) })
	slices.SortFunc(reqs, func(a, b Request) int {
		if a.At != b.At {
			return cmp.Compare(a.At, b.At)
		}
		return cmp.Compare(a.Service, b.Service)
	})
	return &Trace{Config: cfg, Requests: reqs, Counts: counts}
}

// FirstRequests returns each hot service's first request, indexed by
// service: the entry Generate(cfg).Requests holds first for it, found
// without building or sorting the trace. A service without requests
// gets the zero request.
func FirstRequests(cfg Config) []Request {
	first := make([]Request, cfg.HotServices)
	seen := make([]bool, cfg.HotServices)
	draw(&cfg, func(r Request) {
		if !seen[r.Service] || r.At < first[r.Service].At {
			seen[r.Service] = true
			first[r.Service] = r
		}
	})
	return first
}

// draw makes the workload's random draws in their one order, which
// Generate and FirstRequests share, and hands each hot-service request
// to emit, service by service. It checks cfg, defaults its client count
// and returns the per-service counts. The draws come from the generator
// vclock.NewRand wraps, without the lock a shared Rand takes per draw.
func draw(cfg *Config, emit func(Request)) []int {
	if cfg.HotServices <= 0 || cfg.TotalRequests < cfg.HotServices*cfg.MinPerService {
		panic(fmt.Sprintf("trace: infeasible config: %d services × %d min > %d total",
			cfg.HotServices, cfg.MinPerService, cfg.TotalRequests))
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	counts := popularityCounts(*cfg)
	for svc, n := range counts {
		for k := 0; k < n; k++ {
			emit(Request{
				At:      arrivalTime(*cfg, rng),
				Service: svc,
				Client:  rng.Intn(cfg.Clients),
			})
		}
	}
	return counts
}

// popularityCounts assigns per-service request counts: a guaranteed
// minimum plus a Zipf-distributed surplus, summing exactly to the total.
func popularityCounts(cfg Config) []int {
	n := cfg.HotServices
	counts := make([]int, n)
	surplus := cfg.TotalRequests - n*cfg.MinPerService
	weights := make([]float64, n)
	var sum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), cfg.ZipfS)
		sum += weights[i]
	}
	assigned := 0
	for i := range counts {
		extra := int(math.Floor(float64(surplus) * weights[i] / sum))
		counts[i] = cfg.MinPerService + extra
		assigned += extra
	}
	// Distribute rounding remainder over the most popular services.
	for i := 0; assigned < surplus; i = (i + 1) % n {
		counts[i]++
		assigned++
	}
	return counts
}

// arrivalTime draws one arrival offset: front-loaded with probability
// FrontLoadFrac, otherwise uniform over the capture.
func arrivalTime(cfg Config, rng *rand.Rand) time.Duration {
	window := cfg.Duration
	if cfg.FrontLoadFrac > 0 && rng.Float64() < cfg.FrontLoadFrac {
		window = cfg.FrontLoadWindow
		if window <= 0 || window > cfg.Duration {
			window = cfg.Duration
		}
	}
	return time.Duration(rng.Float64() * float64(window))
}

// FirstOccurrences returns, per hot service, when its first request
// arrives — the moment the SDN controller must deploy it (Fig. 10).
func (t *Trace) FirstOccurrences() []time.Duration {
	first := make([]time.Duration, len(t.Counts))
	seen := make([]bool, len(t.Counts))
	for _, r := range t.Requests {
		if !seen[r.Service] {
			seen[r.Service] = true
			first[r.Service] = r.At
		}
	}
	return first
}

// RequestsPerSecond bins request arrivals into one-second buckets over
// the capture duration (the Fig. 9 series).
func (t *Trace) RequestsPerSecond() []int {
	bins := make([]int, int(t.Config.Duration/time.Second)+1)
	for _, r := range t.Requests {
		b := int(r.At / time.Second)
		if b >= 0 && b < len(bins) {
			bins[b]++
		}
	}
	return bins
}

// DeploymentsPerSecond bins first occurrences into one-second buckets
// (the Fig. 10 series).
func (t *Trace) DeploymentsPerSecond() []int {
	bins := make([]int, int(t.Config.Duration/time.Second)+1)
	for i, at := range t.FirstOccurrences() {
		if t.Counts[i] == 0 {
			continue
		}
		b := int(at / time.Second)
		if b >= 0 && b < len(bins) {
			bins[b]++
		}
	}
	return bins
}

// TotalRequests returns the number of hot-service requests.
func (t *Trace) TotalRequests() int { return len(t.Requests) }

// MaxDeploymentsPerSecond returns the busiest deployment second — the
// burst headline of Fig. 10 ("up to eight deployments per second").
func (t *Trace) MaxDeploymentsPerSecond() int {
	max := 0
	for _, n := range t.DeploymentsPerSecond() {
		if n > max {
			max = n
		}
	}
	return max
}
