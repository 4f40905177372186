// Package golden pins what a program prints: a test runs the program's
// main and diffs its standard output, byte for byte, against a
// transcript checked in under testdata/golden. The examples and
// cmd/edgectl use it; an intended change to an output regenerates its
// transcript with
//
//	go run ./examples/<name> > testdata/golden/<name>.txt
package golden

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// Stdout runs fn with os.Stdout redirected into a pipe and returns what
// fn wrote to it.
func Stdout(t testing.TB, fn func()) []byte {
	t.Helper()
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
	func() {
		defer func() {
			os.Stdout = stdout
			w.Close()
		}()
		fn()
	}()
	out := <-read
	r.Close()
	return out
}

// Match runs fn and fails t unless what it prints equals the file at
// path.
func Match(t testing.TB, path string, fn func()) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := Stdout(t, fn); !bytes.Equal(got, want) {
		t.Errorf("output differs from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
