package main

import (
	"testing"

	"github.com/c3lab/transparentedge/internal/golden"
)

// TestOutputMatchesGolden runs the example (the paper's full trace
// replayed against the testbed, every service deployed by its own
// first request) and diffs what it prints against
// testdata/golden/trace-replay.txt.
func TestOutputMatchesGolden(t *testing.T) {
	golden.Match(t, "../../testdata/golden/trace-replay.txt", main)
}
