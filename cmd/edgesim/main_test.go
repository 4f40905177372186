package main

import (
	"flag"
	"os"
	"runtime"
	"testing"

	"github.com/c3lab/transparentedge/internal/golden"
)

// TestOutputMatchesGolden runs the canonical suite (-exp all -n 5
// -seed 1) at one P and diffs what it prints against
// testdata/golden/exp_all_n5_seed1.txt. With two Ps the fault replay's
// p99/max rows move from run to run, so the transcript is pinned at one.
// main defines its flags, so each run gets a fresh flag set and a
// command line without the test binary's flags; -count=2 shows that
// the cells one run keeps do not outlive it. An intended output change
// regenerates the transcript with
//
//	GOMAXPROCS=1 go run ./cmd/edgesim -exp all -n 5 -seed 1 > testdata/golden/exp_all_n5_seed1.txt
func TestOutputMatchesGolden(t *testing.T) {
	if raceEnabled {
		// The race runtime randomises goroutine order even at one P: a
		// race build of edgesim missed the transcript in 7 of 8 runs at
		// GOMAXPROCS=1, each time in the fault-replay table.
		t.Skip("goroutine order is randomised under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	args, commandLine := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, commandLine }()
	os.Args = []string{"edgesim", "-exp", "all", "-n", "5", "-seed", "1"}
	flag.CommandLine = flag.NewFlagSet("edgesim", flag.ExitOnError)
	golden.Match(t, "../../testdata/golden/exp_all_n5_seed1.txt", main)
}
