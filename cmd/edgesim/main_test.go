package main

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"testing"

	"github.com/c3lab/transparentedge/internal/golden"
)

// TestOutputMatchesGolden runs edgesim and diffs what it prints against
// a transcript in testdata/golden, one case per command line:
//
//   - the canonical suite (-exp all -n 5 -seed 1) at one P, and at two
//     Ps less its fault-replay table, whose faulted max (and at times
//     p99) moves from run to run with more than one P — every other
//     section is exact at any P;
//   - the open-loop load run (-exp load -flows 20000 -seed 1) at two Ps,
//     where the controller answers punts from more than one goroutine;
//     its punt count, dispatch quantiles and fingerprint hold at any P;
//   - the mobility experiment (-exp mobility -seed 1) at two Ps, session
//     checksum included.
//
// main defines its flags, so each run gets a fresh flag set and a
// command line without the test binary's flags; -count=2 shows that
// the cells one run keeps do not outlive it. An intended output change
// regenerates a transcript with, e.g.,
//
//	GOMAXPROCS=1 go run ./cmd/edgesim -exp all -n 5 -seed 1 > testdata/golden/exp_all_n5_seed1.txt
//	GOMAXPROCS=2 go run ./cmd/edgesim -exp load -flows 20000 -seed 1 > testdata/golden/exp_load_20k_seed1.txt
//	GOMAXPROCS=2 go run ./cmd/edgesim -exp mobility -seed 1 > testdata/golden/exp_mobility_seed1.txt
func TestOutputMatchesGolden(t *testing.T) {
	if raceEnabled {
		// The race runtime randomises goroutine order even at one P: a
		// race build of edgesim missed the transcript in 7 of 8 runs at
		// GOMAXPROCS=1, each time in the fault-replay table.
		t.Skip("goroutine order is randomised under -race")
	}
	all := []string{"-exp", "all", "-n", "5", "-seed", "1"}
	for _, tc := range []struct {
		name, golden string
		procs        int
		args         []string
		// unpinned, when set, begins the one section left out of the
		// diff.
		unpinned string
	}{
		{"exp_all_n5_seed1", "exp_all_n5_seed1", 1, all, ""},
		{"exp_all_n5_seed1_two_Ps", "exp_all_n5_seed1", 2, all, "Fault injection"},
		{"exp_load_20k_seed1", "exp_load_20k_seed1", 2, []string{"-exp", "load", "-flows", "20000", "-seed", "1"}, ""},
		{"exp_mobility_seed1", "exp_mobility_seed1", 2, []string{"-exp", "mobility", "-seed", "1"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			args, commandLine := os.Args, flag.CommandLine
			defer func() { os.Args, flag.CommandLine = args, commandLine }()
			os.Args = append([]string{"edgesim"}, tc.args...)
			flag.CommandLine = flag.NewFlagSet("edgesim", flag.ExitOnError)
			path := "../../testdata/golden/" + tc.golden + ".txt"
			if tc.unpinned == "" {
				golden.Match(t, path, main)
				return
			}
			matchSections(t, path, golden.Stdout(t, main), tc.unpinned)
		})
	}
}

// matchSections diffs got against the transcript at path section by
// section — the text between blank lines — skipping the section that
// begins with unpinned.
func matchSections(t *testing.T, path string, got []byte, unpinned string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gs, ws := bytes.Split(got, []byte("\n\n")), bytes.Split(want, []byte("\n\n"))
	if len(gs) != len(ws) {
		t.Fatalf("%d sections, %s has %d\n--- got ---\n%s", len(gs), path, len(ws), got)
	}
	skipped := false
	for i, w := range ws {
		if bytes.HasPrefix(bytes.TrimLeft(w, "\n"), []byte(unpinned)) {
			skipped = true
			continue
		}
		if !bytes.Equal(gs[i], w) {
			t.Errorf("section %d differs from %s\n--- got ---\n%s\n--- want ---\n%s", i, path, gs[i], w)
		}
	}
	if !skipped {
		t.Errorf("%s has no section beginning %q", path, unpinned)
	}
}
