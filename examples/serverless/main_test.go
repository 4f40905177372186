package main

import (
	"testing"

	"github.com/c3lab/transparentedge/internal/golden"
)

// TestOutputMatchesGolden runs the example (the serverless path: a
// WebAssembly function deployed next to containers behind the same
// controller) and diffs what it prints against
// testdata/golden/serverless.txt.
func TestOutputMatchesGolden(t *testing.T) {
	golden.Match(t, "../../testdata/golden/serverless.txt", main)
}
