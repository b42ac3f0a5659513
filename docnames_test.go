package uniloc

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// citedNameDocs are the files that cite tests, benchmarks and fuzz
// targets by name. A `-run` pattern naming a deleted test matches
// nothing and its CI step still passes, so a stale name there is a
// silently skipped check.
var citedNameDocs = []string{
	".github/workflows/ci.yml",
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
}

var (
	citedNameRE   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	definedNameRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
)

// TestDocsCiteOnlyDefinedTests fails when a file in citedNameDocs
// names a Test…, Benchmark… or Fuzz… function that no _test.go file
// in the repository (the bench module included) defines.
func TestDocsCiteOnlyDefinedTests(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range definedNameRE.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !defined["TestDocsCiteOnlyDefinedTests"] {
		t.Fatal("the scan found no test definitions; is the working directory the repository root?")
	}
	for _, doc := range citedNameDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var stale []string
		seen := map[string]bool{}
		for _, name := range citedNameRE.FindAllString(string(src), -1) {
			if !defined[name] && !seen[name] {
				seen[name] = true
				stale = append(stale, name)
			}
		}
		sort.Strings(stale)
		if len(stale) > 0 {
			t.Errorf("%s cites %d undefined test names: %s", doc, len(stale), strings.Join(stale, ", "))
		}
	}
}
