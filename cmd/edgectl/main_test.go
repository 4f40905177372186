package main

import (
	"flag"
	"os"
	"testing"

	"github.com/c3lab/transparentedge/internal/golden"
)

// TestOutputMatchesGolden runs edgectl with no arguments, the full
// walkthrough, and diffs what it prints against
// testdata/golden/edgectl.txt. main defines its flags, so each run gets
// a fresh flag set and a command line without the test binary's flags.
func TestOutputMatchesGolden(t *testing.T) {
	args, commandLine := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, commandLine }()
	os.Args = []string{"edgectl"}
	flag.CommandLine = flag.NewFlagSet("edgectl", flag.ExitOnError)
	golden.Match(t, "../../testdata/golden/edgectl.txt", main)
}
