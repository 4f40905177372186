package main

import (
	"testing"

	"github.com/c3lab/transparentedge/internal/golden"
)

// TestOutputMatchesGolden runs the example (on-demand deployment
// without waiting: the first request goes to a farther edge while the
// nearest one deploys) and diffs what it prints against
// testdata/golden/ondemand-nowait.txt.
func TestOutputMatchesGolden(t *testing.T) {
	golden.Match(t, "../../testdata/golden/ondemand-nowait.txt", main)
}
