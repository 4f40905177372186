// Package layers holds the benchmark's layer drivers: one small
// program per hot operation of each module, written against exported
// API only, each timing a fixed number of calls and checking its own
// result so that a broken driver cannot report a fast number.
package layers

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// Driver measures one operation of one layer. Name is
// "<layer>.<operation>"; the harness reports <Name>_ns and
// <Name>_allocs per call.
type Driver struct {
	Name string
	// Calls is the number of calls one measurement times at scale 1.
	Calls int
	// Run sets the layer up, calls m.Measure exactly once, and reports a
	// wrong result through m.Failf.
	Run func(m *M)
}

// Result is one driver's outcome: host nanoseconds and allocations per
// call, one value per measurement. The harness reduces them.
type Result struct {
	Name string `json:"name"`
	// Calls is how many calls each measurement timed; At is when each one
	// started, in Unix nanoseconds.
	Calls  int       `json:"calls"`
	At     []int64   `json:"at_unix_ns"`
	Ns     []float64 `json:"ns_per_call"`
	Allocs []float64 `json:"allocs_per_call"`
	// HostRate is the host rate the harness read during each measurement
	// (the harness fills it in; see hostspeed.go).
	HostRate []float64 `json:"host_rate,omitempty"`
	// Virt carries virtual-axis by-products (the deploy drivers' phase
	// durations), by metric name.
	Virt map[string]float64 `json:"virt,omitempty"`
	// Err is empty when the driver's self-check held.
	Err string `json:"err,omitempty"`
}

// measurements is how many times a driver's body is timed.
const measurements = 7

// M is the handle a driver measures through.
type M struct {
	// N is the number of calls each measurement must make.
	N int
	// resident scales the populations drivers measure against.
	resident float64
	at       []int64
	ns       []float64
	allocs   []float64
	virt     map[string]float64
	err      string
}

// Measure times body(m.N) `measurements` times. prep, when not nil,
// runs untimed before each one.
func (m *M) Measure(prep func(), body func(n int)) {
	var m0, m1 runtime.MemStats
	for i := 0; i < measurements; i++ {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		body(m.N)
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		m.at = append(m.at, t0.UnixNano())
		m.ns = append(m.ns, float64(dt.Nanoseconds())/float64(m.N))
		m.allocs = append(m.allocs, float64(m1.Mallocs-m0.Mallocs)/float64(m.N))
	}
}

// Resident sizes a resident population (timers armed, table entries,
// memorized flows) that is n at full size.
func (m *M) Resident(n int) int {
	if v := int(float64(n) * m.resident); v > 64 {
		return v
	}
	return 64
}

// Failf records a failed self-check; the first one wins.
func (m *M) Failf(format string, args ...any) {
	if m.err == "" {
		m.err = fmt.Sprintf(format, args...)
	}
}

// SetVirt records a virtual-axis by-product.
func (m *M) SetVirt(name string, v float64) {
	if m.virt == nil {
		m.virt = map[string]float64{}
	}
	m.virt[name] = v
}

// Drivers lists every layer driver, in report order.
var Drivers = []Driver{
	{Name: "vclock.timer_post_stop", Calls: 1_000_000, Run: timerPostStop},
	{Name: "vclock.timer_fire", Calls: 500_000, Run: timerFire},
	{Name: "vclock.sleep_wake", Calls: 300_000, Run: sleepWake},
	{Name: "vclock.mailbox_rtt", Calls: 100_000, Run: mailboxRTT},
	{Name: "vclock.go_handoff", Calls: 100_000, Run: goHandoff},
	{Name: "netem.hop", Calls: 500_000, Run: packetHop},
	{Name: "netem.reqresp", Calls: 10_000, Run: reqResp},
	{Name: "netem.bulk_83k", Calls: 1_000, Run: bulk83k},
	{Name: "openflow.lookup_miss", Calls: 200_000, Run: lookupMiss},
	{Name: "openflow.microflow_hit", Calls: 500_000, Run: microflowHit},
	{Name: "openflow.install", Calls: 50_000, Run: flowInstall},
	{Name: "openflow.delete_exact", Calls: 50_000, Run: flowDeleteExact},
	{Name: "core.packetin_cold", Calls: 20_000, Run: packetInCold},
	{Name: "core.packetin_memhit", Calls: 20_000, Run: packetInMemHit},
	{Name: "core.flowmemory_remember", Calls: 200_000, Run: flowMemoryRemember},
	{Name: "core.flowmemory_lookup", Calls: 1_000_000, Run: flowMemoryLookup},
	{Name: "core.handover", Calls: 1_000, Run: handover},
	{Name: "docker.deploy", Calls: 40, Run: func(m *M) { deploy(m, "docker") }},
	{Name: "kube.deploy", Calls: 40, Run: func(m *M) { deploy(m, "kube") }},
	{Name: "yaml.unmarshal", Calls: 5_000, Run: yamlUnmarshal},
	{Name: "yaml.marshal", Calls: 5_000, Run: yamlMarshal},
	{Name: "metrics.hist_record", Calls: 5_000_000, Run: histRecord},
	{Name: "testbed.new", Calls: 10, Run: testbedNew},
}

// RunAll runs every driver with its call counts multiplied by scale.
// Resident populations are part of what a driver measures, so they keep
// their full size down to scale 1/4 and shrink only below it.
func RunAll(scale float64) []Result {
	out := make([]Result, 0, len(Drivers))
	for _, d := range Drivers {
		out = append(out, run(d, scale))
	}
	return out
}

func run(d Driver, scale float64) Result {
	m := &M{N: int(float64(d.Calls)*scale + 0.5), resident: math.Min(1, 4*scale)}
	if m.N < 4 {
		m.N = 4
	}
	d.Run(m)
	res := Result{Name: d.Name, Calls: m.N, At: m.at, Ns: m.ns, Allocs: m.allocs, Virt: m.virt, Err: m.err}
	if len(m.ns) != measurements && res.Err == "" {
		res.Err = fmt.Sprintf("driver took %d measurements, want %d", len(m.ns), measurements)
	}
	return res
}
