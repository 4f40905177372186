package transparentedge

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose references TestDocReferences checks.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

var (
	// docPath matches a repository path a document cites, starting at a
	// word boundary so that the tail of a longer path is not read as a
	// root-relative one.
	docPath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])((?:internal|cmd|examples|testdata)/[A-Za-z0-9_./*-]*)`)
	// docTest matches a cited test, fuzz target or benchmark name.
	docTest = regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*)`)
	// testFunc matches a test, fuzz target or benchmark declaration.
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
)

// TestDocReferences: every repository path DESIGN.md, README.md and
// EXPERIMENTS.md cite exists, and every TestX, FuzzX or BenchmarkX they
// cite is a prefix of a declared one (prefixes, because the documents
// cite -run patterns).
func TestDocReferences(t *testing.T) {
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := func(name string) bool {
		for _, f := range funcs {
			if strings.HasPrefix(f, name) {
				return true
			}
		}
		return false
	}
	for _, doc := range docFiles {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range docPath.FindAllStringSubmatch(line, -1) {
				path := strings.TrimRight(m[1], ".,")
				if matches, _ := filepath.Glob(path); len(matches) == 0 {
					t.Errorf("%s:%d cites %s, which does not exist", doc, i+1, path)
				}
			}
			for _, m := range docTest.FindAllStringSubmatch(line, -1) {
				if !declared(m[1]) {
					t.Errorf("%s:%d cites %s, which no test file declares", doc, i+1, m[1])
				}
			}
		}
	}
}
