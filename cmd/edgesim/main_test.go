package main

import (
	"flag"
	"os"
	"runtime"
	"testing"

	"github.com/c3lab/transparentedge/internal/golden"
)

// TestOutputMatchesGolden runs edgesim and diffs what it prints against
// a transcript in testdata/golden, one case per command line:
//
//   - the canonical suite (-exp all -n 5 -seed 1) at one P: with two Ps
//     the fault replay's p99/max rows move from run to run;
//   - the open-loop load run (-exp load -flows 20000 -seed 1) at two Ps,
//     where the controller answers punts from more than one goroutine;
//     its punt count, dispatch quantiles and fingerprint hold at any P.
//
// main defines its flags, so each run gets a fresh flag set and a
// command line without the test binary's flags; -count=2 shows that
// the cells one run keeps do not outlive it. An intended output change
// regenerates a transcript with, e.g.,
//
//	GOMAXPROCS=1 go run ./cmd/edgesim -exp all -n 5 -seed 1 > testdata/golden/exp_all_n5_seed1.txt
//	GOMAXPROCS=2 go run ./cmd/edgesim -exp load -flows 20000 -seed 1 > testdata/golden/exp_load_20k_seed1.txt
func TestOutputMatchesGolden(t *testing.T) {
	if raceEnabled {
		// The race runtime randomises goroutine order even at one P: a
		// race build of edgesim missed the transcript in 7 of 8 runs at
		// GOMAXPROCS=1, each time in the fault-replay table.
		t.Skip("goroutine order is randomised under -race")
	}
	for _, tc := range []struct {
		golden string
		procs  int
		args   []string
	}{
		{"exp_all_n5_seed1", 1, []string{"-exp", "all", "-n", "5", "-seed", "1"}},
		{"exp_load_20k_seed1", 2, []string{"-exp", "load", "-flows", "20000", "-seed", "1"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			args, commandLine := os.Args, flag.CommandLine
			defer func() { os.Args, flag.CommandLine = args, commandLine }()
			os.Args = append([]string{"edgesim"}, tc.args...)
			flag.CommandLine = flag.NewFlagSet("edgesim", flag.ExitOnError)
			golden.Match(t, "../../testdata/golden/"+tc.golden+".txt", main)
		})
	}
}
