package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestOutputMatchesGolden runs the quickstart and diffs what it prints
// against testdata/golden/quickstart.txt: the annotated Deployment and
// the generated Service YAML, byte for byte, then the two request
// latencies and the controller's counters. An intended change to any of
// them regenerates the file with
//
//	go run ./examples/quickstart > testdata/golden/quickstart.txt
func TestOutputMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("../../testdata/golden/quickstart.txt")
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r) // ends when w closes below
		read <- out
	}()
	stdout := os.Stdout
	os.Stdout = w
	main()
	os.Stdout = stdout
	w.Close()
	got := <-read
	r.Close()
	if !bytes.Equal(got, want) {
		t.Errorf("quickstart output differs from the golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
