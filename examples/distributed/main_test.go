package main

import (
	"testing"

	"github.com/c3lab/transparentedge/internal/golden"
)

// TestOutputMatchesGolden runs the example (one controller, two gNB
// zones, an instance deployed on demand in each) and diffs what it
// prints against testdata/golden/distributed.txt.
func TestOutputMatchesGolden(t *testing.T) {
	golden.Match(t, "../../testdata/golden/distributed.txt", main)
}
