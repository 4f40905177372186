// Command benchguard gates CI on benchmark regressions that are stable
// enough to assert exactly: allocation counts. It reads `go test -bench
// -benchmem` output on stdin and fails if any gated benchmark reports
// more allocs/op than its ceiling. Unlike ns/op, allocs/op is
// deterministic across machines, so the ceilings can be checked in and
// enforced on shared runners without flakiness.
//
// Gates are given either as the legacy single pair
//
//	... | go run ./cmd/benchguard -bench BenchmarkPacketHop -max-allocs 0
//
// or as repeatable NAME_REGEXP=MAX pairs, all enforced in one pass:
//
//	go test -bench='PacketHop|FanIn|BulkTransfer' -benchtime=100x -benchmem -run='^$' ./internal/netem/ |
//	    go run ./cmd/benchguard \
//	        -gate 'BenchmarkPacketHop(-[0-9]+)?$=0' \
//	        -gate 'BenchmarkPacketSwitchingFanIn(-[0-9]+)?$=96' \
//	        -gate 'BenchmarkBulkTransfer(-[0-9]+)?$=24'
//
// The (-[0-9]+)? tail is for the -GOMAXPROCS suffix go test adds to the
// name on a multi-core machine.
//
// Every gate must match at least one benchmark on stdin; a gate that
// matches nothing fails the run (it means the benchmark was renamed or
// the -bench filter dropped it, and a guard silently guarding nothing
// is exactly the failure mode this tool exists to prevent).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// gate is one benchmark-name pattern with its allocs/op ceiling.
type gate struct {
	spec    string
	re      *regexp.Regexp
	max     int64
	matched int
}

// gateList implements flag.Value for the repeatable -gate flag.
type gateList struct{ gates *[]*gate }

func (g gateList) String() string { return "" }

func (g gateList) Set(s string) error {
	eq := strings.LastIndex(s, "=")
	if eq < 1 {
		return fmt.Errorf("want NAME_REGEXP=MAX, got %q", s)
	}
	re, err := regexp.Compile(s[:eq])
	if err != nil {
		return err
	}
	max, err := strconv.ParseInt(s[eq+1:], 10, 64)
	if err != nil {
		return fmt.Errorf("bad ceiling in %q: %v", s, err)
	}
	*g.gates = append(*g.gates, &gate{spec: s, re: re, max: max})
	return nil
}

func main() {
	var gates []*gate
	bench := flag.String("bench", "", "regexp of benchmark names to guard (legacy single-gate form)")
	maxAllocs := flag.Int64("max-allocs", 0, "maximum allowed allocs/op for -bench")
	flag.Var(gateList{&gates}, "gate", "NAME_REGEXP=MAX_ALLOCS gate (repeatable)")
	flag.Parse()
	if *bench != "" {
		re, err := regexp.Compile(*bench)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: bad -bench: %v\n", err)
			os.Exit(2)
		}
		gates = append(gates, &gate{spec: fmt.Sprintf("%s=%d", *bench, *maxAllocs), re: re, max: *maxAllocs})
	}
	if len(gates) == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: at least one -gate (or -bench) is required")
		os.Exit(2)
	}

	resultLine := regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	failed := 0
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the output through for the CI log
		m := resultLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		allocs, ok := allocsPerOp(m[2])
		if !ok {
			continue
		}
		for _, g := range gates {
			if !g.re.MatchString(m[1]) {
				continue
			}
			g.matched++
			if allocs > g.max {
				failed++
				fmt.Fprintf(os.Stderr, "benchguard: FAIL %s: %d allocs/op exceeds ceiling %d\n",
					m[1], allocs, g.max)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: read: %v\n", err)
		os.Exit(2)
	}
	for _, g := range gates {
		if g.matched == 0 {
			fmt.Fprintf(os.Stderr, "benchguard: gate %q matched no benchmark with allocs/op on stdin (did you pass -benchmem?)\n", g.spec)
			os.Exit(2)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
	for _, g := range gates {
		fmt.Printf("benchguard: %d benchmark(s) within gate %s\n", g.matched, g.spec)
	}
}

// allocsPerOp extracts the allocs/op value from a benchmark result
// tail, reporting ok=false when the metric is absent.
func allocsPerOp(tail string) (int64, bool) {
	fields := strings.Fields(tail)
	for i := 0; i+1 < len(fields); i += 2 {
		if fields[i+1] != "allocs/op" {
			continue
		}
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: bad allocs/op %q\n", fields[i])
			os.Exit(2)
		}
		return v, true
	}
	return 0, false
}
