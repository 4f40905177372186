package trace

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultBigFlowsTotals(t *testing.T) {
	tr := Generate(DefaultBigFlows())
	if got := len(tr.Counts); got != 42 {
		t.Errorf("services = %d, want 42", got)
	}
	if got := tr.TotalRequests(); got != 1708 {
		t.Errorf("total requests = %d, want 1708", got)
	}
	for i, c := range tr.Counts {
		if c < 20 {
			t.Errorf("service %d has %d requests, below the 20 minimum", i, c)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(DefaultBigFlows()), Generate(DefaultBigFlows())
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("lengths differ across runs")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a.Requests[i], b.Requests[i])
		}
	}
}

func TestGenerateSortedWithinDuration(t *testing.T) {
	tr := Generate(DefaultBigFlows())
	var prev time.Duration
	for i, r := range tr.Requests {
		if r.At < prev {
			t.Fatalf("request %d out of order", i)
		}
		prev = r.At
		if r.At < 0 || r.At >= tr.Config.Duration {
			t.Fatalf("request %d at %v outside capture", i, r.At)
		}
		if r.Client < 0 || r.Client >= tr.Config.Clients {
			t.Fatalf("request %d client %d out of range", i, r.Client)
		}
	}
}

func TestPopularityIsSkewed(t *testing.T) {
	tr := Generate(DefaultBigFlows())
	if tr.Counts[0] <= tr.Counts[len(tr.Counts)-1] {
		t.Errorf("no popularity skew: first=%d last=%d", tr.Counts[0], tr.Counts[len(tr.Counts)-1])
	}
	if tr.Counts[0] < 2*tr.Counts[len(tr.Counts)-1] {
		t.Errorf("skew too flat: first=%d last=%d", tr.Counts[0], tr.Counts[len(tr.Counts)-1])
	}
}

func TestDeploymentBurstAtStart(t *testing.T) {
	tr := Generate(DefaultBigFlows())
	first := tr.FirstOccurrences()
	inWindow := 0
	for _, at := range first {
		if at < 30*time.Second {
			inWindow++
		}
	}
	// Fig. 10: the bulk of the 42 deployments happen early.
	if inWindow < len(first)/2 {
		t.Errorf("only %d/%d deployments in the first 30s; arrivals not front-loaded", inWindow, len(first))
	}
	if burst := tr.MaxDeploymentsPerSecond(); burst < 2 || burst > 20 {
		t.Errorf("max deployments/s = %d, want a visible burst (paper: up to 8)", burst)
	}
}

func TestHistogramsConserveMass(t *testing.T) {
	tr := Generate(DefaultBigFlows())
	sum := 0
	for _, n := range tr.RequestsPerSecond() {
		sum += n
	}
	if sum != tr.TotalRequests() {
		t.Errorf("requests histogram sums to %d, want %d", sum, tr.TotalRequests())
	}
	sum = 0
	for _, n := range tr.DeploymentsPerSecond() {
		sum += n
	}
	if sum != len(tr.Counts) {
		t.Errorf("deployments histogram sums to %d, want %d", sum, len(tr.Counts))
	}
}

func TestInfeasibleConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for infeasible config")
		}
	}()
	Generate(Config{HotServices: 10, TotalRequests: 50, MinPerService: 20, Duration: time.Minute})
}

func TestPcapRoundTripRecoversWorkload(t *testing.T) {
	cfg := DefaultBigFlows()
	tr := Generate(cfg)
	var buf bytes.Buffer
	start := time.Unix(1700000000, 0)
	if err := tr.WritePcap(&buf, start); err != nil {
		t.Fatal(err)
	}
	back, err := FromPcap(bytes.NewReader(buf.Bytes()), cfg.Duration, cfg.MinPerService)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's filter must recover exactly the hot services and drop
	// the noise: 42 services, 1708 requests.
	if got := len(back.Counts); got != cfg.HotServices {
		t.Errorf("recovered %d services, want %d", got, cfg.HotServices)
	}
	if got := back.TotalRequests(); got != cfg.TotalRequests {
		t.Errorf("recovered %d requests, want %d", got, cfg.TotalRequests)
	}
	// Count multiset must match (indices may be permuted by count sort).
	wantCounts := append([]int(nil), tr.Counts...)
	gotCounts := append([]int(nil), back.Counts...)
	sortInts(wantCounts)
	sortInts(gotCounts)
	for i := range wantCounts {
		if wantCounts[i] != gotCounts[i] {
			t.Fatalf("count multiset differs at %d: %d vs %d", i, gotCounts[i], wantCounts[i])
		}
	}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Property: for any feasible config, totals are exact and every service
// meets the minimum.
func TestGenerateTotalsProperty(t *testing.T) {
	f := func(services, perService uint8, extra uint16, seed int64) bool {
		n := int(services%40) + 1
		min := int(perService%10) + 1
		total := n*min + int(extra%500)
		cfg := Config{
			Duration:      time.Minute,
			HotServices:   n,
			TotalRequests: total,
			MinPerService: min,
			Clients:       5,
			ZipfS:         1.0,
			Seed:          seed,
		}
		tr := Generate(cfg)
		if tr.TotalRequests() != total || len(tr.Counts) != n {
			return false
		}
		sum := 0
		for _, c := range tr.Counts {
			if c < min {
				return false
			}
			sum += c
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// growCounter counts the bytes written to it and records each Grow.
type growCounter struct {
	n     int
	grows []int
}

func (g *growCounter) Write(p []byte) (int, error) { g.n += len(p); return len(p), nil }
func (g *growCounter) Grow(n int)                  { g.grows = append(g.grows, n) }

// TestWritePcapGrowsToExactSize: a writer that can grow is grown once,
// before the first byte, by exactly the number of bytes the capture
// then writes.
func TestWritePcapGrowsToExactSize(t *testing.T) {
	for _, cfg := range []Config{DefaultBigFlows(), {HotServices: 2, TotalRequests: 40, MinPerService: 20, Duration: time.Minute, Clients: 3, Seed: 5}} {
		var g growCounter
		if err := Generate(cfg).WritePcap(&g, time.Unix(1700000000, 0)); err != nil {
			t.Fatal(err)
		}
		if len(g.grows) != 1 || g.grows[0] != g.n {
			t.Errorf("%d hot services: Grow calls %v for %d bytes written", cfg.HotServices, g.grows, g.n)
		}
	}
}
