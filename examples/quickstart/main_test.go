package main

import (
	"testing"

	"github.com/c3lab/transparentedge/internal/golden"
)

// TestOutputMatchesGolden runs the quickstart and diffs what it prints
// against testdata/golden/quickstart.txt: the annotated Deployment and
// the generated Service YAML, byte for byte, then the two request
// latencies and the controller's counters.
func TestOutputMatchesGolden(t *testing.T) {
	golden.Match(t, "../../testdata/golden/quickstart.txt", main)
}
