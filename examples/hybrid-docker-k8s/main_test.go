package main

import (
	"testing"

	"github.com/c3lab/transparentedge/internal/golden"
)

// TestOutputMatchesGolden runs the example (the §VII hybrid
// deployment: Docker for the first request, Kubernetes for the ones
// after) and diffs what it prints against testdata/golden/hybrid-
// docker-k8s.txt.
func TestOutputMatchesGolden(t *testing.T) {
	golden.Match(t, "../../testdata/golden/hybrid-docker-k8s.txt", main)
}
