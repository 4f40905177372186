// Command bench is the repository's benchmark: six named workloads,
// eight end-to-end metrics, and a per-layer breakdown taken entirely
// from outside the program — counts read from results, a CPU profile
// attributed to layers, and drivers timing each layer's exported API.
// bench/README.md is the dictionary of names.
//
//	go run ./bench                      # full run set: every metric, every workload
//	go run ./bench -aa                  # two run sets of the same build, compared
//	go run ./bench -workload load-cold -seed 3 -reps 3
//	go run ./bench --workload load-cold --seed 3 --seconds 12 --trace 0   # one contract run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/c3lab/transparentedge/bench/layers"
)

// fullScale is the workload size of a full run set: the sizes the README
// states.
const fullScale = 1

// contractScale is the workload size of a contract run: a fifth of the
// stated sizes, so that a 12 s run holds a dozen or more reps of 0.4–1 s.
const contractScale = 0.2

// quickScale is the -quick smoke size.
const quickScale = 0.02

func main() {
	var (
		child      = flag.String("child", "", "internal: run one rep of this workload (or \"layers\") in this process")
		cpuprofile = flag.String("cpuprofile", "", "internal: with -child, write a CPU profile here")
		workloadF  = flag.String("workload", "", "run only this workload (default: all six)")
		seed       = flag.Int64("seed", 1, "workload seed")
		seconds    = flag.Float64("seconds", 0, "contract run: measure one -workload for this long and print one JSON result line")
		trace      = flag.Int("trace", 1, "1: take the traced (CPU-profiled) rep and, in a contract run, report the per-layer metrics; 0: do not")
		reps       = flag.Int("reps", 7, "untraced reps per workload in a full run set")
		scale      = flag.Float64("scale", 1, "internal: with -child, the workload size factor")
		drivers    = flag.Bool("layers", true, "run the layer drivers in a full run set")
		quick      = flag.Bool("quick", false, "smoke run: 1/50 sizes, 1 rep, the layer drivers, no tracing")
		aa         = flag.Bool("aa", false, "take two run sets of the same build and hold their difference to the bounds")
		spec       = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()

	var err error
	ok := true
	switch {
	case *child != "":
		err = childMain(*child, *seed, *scale, *cpuprofile)
	case *scale != 1 || *cpuprofile != "":
		// Sizes are fixed (fullScale, contractScale, quickScale) so that
		// one metric name always means one size.
		fmt.Fprintln(os.Stderr, "bench: -scale and -cpuprofile go with -child only")
		os.Exit(2)
	case *spec:
		err = printSpec(os.Stdout)
	default:
		ws := workloads
		if *workloadF != "" {
			w := findWorkload(*workloadF)
			if w == nil {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadF)
				os.Exit(2)
			}
			ws = []*workload{w}
		}
		switch {
		case *seconds > 0:
			if len(ws) != 1 {
				fmt.Fprintln(os.Stderr, "bench: -seconds needs -workload")
				os.Exit(2)
			}
			ok, err = contractRun(ws[0], *seed, *seconds, *trace != 0)
		case *quick:
			ok, err = fullRun(ws, runOptions{seed: *seed, scale: quickScale, reps: 1, layers: *drivers})
		default:
			ok, err = fullRun(ws, runOptions{seed: *seed, scale: fullScale, reps: *reps, trace: *trace != 0, layers: *drivers, aa: *aa})
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func printSpec(w io.Writer) error {
	raw, err := json.MarshalIndent(buildDoc(), "", "  ")
	if err != nil {
		return err
	}
	if _, err := validateDoc(raw); err != nil {
		return fmt.Errorf("generated BENCHMARK.json breaks the contract: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

type runOptions struct {
	seed   int64
	scale  float64
	reps   int
	trace  bool // one traced rep per workload
	layers bool // run the layer drivers
	aa     bool
}

// runSet is the outcome of one full run set.
type runSet struct {
	Context hostContext `json:"context"`
	Seed    int64       `json:"seed"`
	Scale   float64     `json:"scale"`
	Reps    int         `json:"reps"`
	Setup   timed       `json:"setup"`
	// FastestRate is the speedometer's highest rate, in kernels per
	// second: host speed 1 (hostspeed.go).
	FastestRate float64         `json:"host_fastest_rate"`
	Workloads   []*summary      `json:"workloads"`
	Layers      []layers.Result `json:"layers,omitempty"`
}

func (rs *runSet) valid() bool {
	for _, s := range rs.Workloads {
		if !s.valid() {
			return false
		}
	}
	return true
}

// takeRunSet sets up, then takes opt.reps interleaved reps of every
// workload, one traced rep each, and the layer drivers.
func (h *harness) takeRunSet(ws []*workload, opt runOptions, start time.Time) (*runSet, error) {
	// In a full run set, set-up is everything from command start to the
	// first timed rep.
	golden, setup, err := h.setUp(ws, opt.scale, start)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(h.log, "set-up took %.1f s\n", setup.S)
	ss := newSamples(ws)
	for r := 0; r < opt.reps; r++ {
		fmt.Fprintf(h.log, "round %d of %d\n", r+1, opt.reps)
		if err := h.round(ss, opt.scale, false); err != nil {
			return nil, err
		}
	}
	if opt.trace {
		fmt.Fprintf(h.log, "traced round\n")
		if err := h.round(ss, opt.scale, true); err != nil {
			return nil, err
		}
	}
	rs := &runSet{Context: readContext(h.root), Seed: opt.seed, Scale: opt.scale, Reps: opt.reps, Setup: setup}
	if opt.layers {
		if rs.Layers, err = h.runLayers(opt.scale); err != nil {
			return nil, err
		}
	}
	rs.FastestRate = h.fastest()
	for _, s := range ss {
		sum := summarize(s, []timed{setup}, rs.Layers, rs.FastestRate)
		if golden != "" {
			sum.Problems = append(sum.Problems, golden)
		}
		rs.Workloads = append(rs.Workloads, sum)
	}
	return rs, nil
}

// fullRun is `go run ./bench`: one run set (two with -aa), the metric
// tables, the raw results file, and one exit status.
func fullRun(ws []*workload, opt runOptions) (bool, error) {
	start := time.Now()
	h, err := newHarness(opt.seed, os.Stderr)
	if err != nil {
		return false, err
	}
	defer h.speed.stop()
	a, err := h.takeRunSet(ws, opt, start)
	if err != nil {
		return false, err
	}
	printRunSet(os.Stdout, a)
	ok := a.valid()
	if opt.aa {
		fmt.Fprintf(h.log, "second run set\n")
		b, err := h.takeRunSet(ws, opt, time.Now())
		if err != nil {
			return false, err
		}
		ok = printAA(os.Stdout, a, b) && ok
	}
	path := filepath.Join(h.build, "results.json")
	raw, err := json.MarshalIndent(a, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Fprintf(h.log, "raw results: %s\n", path)
	if !ok {
		fmt.Fprintln(os.Stdout, "FAILED: see the problems above")
	}
	return ok, nil
}

// contractSetups is how many times a contract run sets up. The run
// contract asks for several set-ups in a run and their median as setup_s,
// so that one cold build does not decide it.
const contractSetups = 3

// contractLayersScale is the layer drivers' call-count factor in a
// traced contract run (resident populations keep their full size).
const contractLayersScale = 0.25

// contractRun is one run under the builder's contract: measure one
// workload for `seconds`, check the outputs, and print one JSON object
// as the last line of stdout — the end-to-end metrics, or with tracing
// the per-layer metrics. Everything else goes to stderr.
func contractRun(w *workload, seed int64, seconds float64, traced bool) (bool, error) {
	const scale = contractScale
	h, err := newHarness(seed, io.Discard)
	if err != nil {
		return false, err
	}
	defer h.speed.stop()
	ws := []*workload{w}
	var setups []timed
	var golden string
	for i := 0; i < contractSetups; i++ {
		g, took, err := h.setUp(ws, scale, time.Now())
		if err != nil {
			return false, err
		}
		if g != "" {
			golden = g
		}
		setups = append(setups, took)
		if traced {
			break // setup_s is not reported with the per-layer metrics
		}
	}

	ss := newSamples(ws)
	var drivers []layers.Result
	start := time.Now()
	if !traced {
		for len(ss[0].reps) == 0 || time.Since(start).Seconds() < seconds {
			if err := h.round(ss, scale, false); err != nil {
				return false, err
			}
		}
	} else {
		// Half the time on rep pairs — every untraced rep next to a
		// traced one, so the overhead compares like with like — the rest
		// on the layer drivers.
		for len(ss[0].reps) == 0 || time.Since(start).Seconds() < seconds/2 {
			if err := h.round(ss, scale, false); err != nil {
				return false, err
			}
			if err := h.round(ss, scale, true); err != nil {
				return false, err
			}
		}
		if drivers, err = h.runLayers(contractLayersScale); err != nil {
			return false, err
		}
	}

	sum := summarize(ss[0], setups, drivers, h.fastest())
	if golden != "" {
		sum.Problems = append(sum.Problems, golden)
	}
	printSummary(os.Stderr, sum)
	printDrivers(os.Stderr, drivers, h.fastest())

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: sum.valid(), Attempted: sum.Attempted, Failed: sum.Failed, Metrics: map[string]value{}}
	if traced {
		for _, m := range perLayer() {
			result.Metrics[m.Name] = value{Value: sum.PerLayer[m.Name], Unit: m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			if !m.Virtual {
				result.Metrics[m.Name] = value{Value: sum.EndToEnd[m.Name].Value, Unit: m.Unit}
			}
		}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return false, err
	}
	fmt.Printf("%s\n", line)
	return sum.valid(), nil
}
