package xftl_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// designMaxLines bounds DESIGN.md. The document holds the paper mapping,
// the one path down and the decisions that span layers; a section that
// grows past the bound restates what a package comment, a test or
// CHANGES.md already holds.
const designMaxLines = 1000

// designCiters are the files besides the Go sources that cite DESIGN.md
// sections by number.
var designCiters = []string{
	"README.md",
	"EXPERIMENTS.md",
	".github/workflows/ci.yml",
	"internal/torture/testdata/mutants/check.sh",
	".claude/skills/verify/SKILL.md",
}

var (
	designSection  = regexp.MustCompile(`(?m)^## (\d+[a-z]?)\. `)
	designCitation = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//|#)*§\s?(\d+[a-z]?)`)
	testFunc       = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	namedTest      = regexp.MustCompile(`\b((?:Test|Fuzz)[A-Z]\w*)`)
	moduleMap      = regexp.MustCompile("(?s)\n## 5\\. [^\n]*\n\n```\n(.*?)```")
	goRunTarget    = regexp.MustCompile(`go run (\./\S*)`)
)

// TestDesignStaysCurrent holds DESIGN.md to its size bound, every
// "DESIGN.md §N" citation elsewhere in the tree to a section that exists,
// and every test or fuzz target the documents name to a function in the
// tree. Inside DESIGN.md a bare §N cites the paper, so only other files'
// citations are read.
func TestDesignStaysCurrent(t *testing.T) {
	design := readRepoFile(t, "DESIGN.md")
	if n := strings.Count(design, "\n"); n > designMaxLines {
		t.Errorf("DESIGN.md has %d lines, more than %d", n, designMaxLines)
	}
	sections := map[string]bool{}
	for _, m := range designSection.FindAllStringSubmatch(design, -1) {
		sections[m[1]] = true
	}

	citers := append([]string(nil), designCiters...)
	tests := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		citers = append(citers, path)
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllStringSubmatch(readRepoFile(t, path), -1) {
				tests[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, path := range citers {
		for _, m := range designCitation.FindAllStringSubmatch(readRepoFile(t, path), -1) {
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, which has no section of that number", path, m[1])
			}
		}
	}

	for _, path := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		var missing []string
		for _, m := range namedTest.FindAllStringSubmatch(readRepoFile(t, path), -1) {
			if !tests[m[1]] {
				missing = append(missing, m[1])
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			t.Errorf("%s names tests the tree does not have: %s", path, strings.Join(missing, ", "))
		}
	}
}

// TestDocumentedPathsExist holds the documents' directions to the tree:
// every path in DESIGN.md §5's module map and every `go run ./…` target
// in README.md must exist.
func TestDocumentedPathsExist(t *testing.T) {
	m := moduleMap.FindStringSubmatch(readRepoFile(t, "DESIGN.md"))
	if m == nil {
		t.Fatal("DESIGN.md has no §5 module map")
	}
	var mapped []string
	for _, line := range strings.Split(m[1], "\n") {
		if entry, _, ok := strings.Cut(line, " -- "); ok {
			for _, path := range strings.Split(entry, ",") {
				mapped = append(mapped, strings.TrimSpace(path))
			}
		}
	}
	if len(mapped) == 0 {
		t.Fatal("DESIGN.md §5's module map lists no paths")
	}
	for _, path := range mapped {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("DESIGN.md §5 maps %s, which the tree does not have", path)
		}
	}
	for _, m := range goRunTarget.FindAllStringSubmatch(readRepoFile(t, "README.md"), -1) {
		if _, err := os.Stat(m[1]); err != nil {
			t.Errorf("README.md says go run %s, which the tree does not have", m[1])
		}
	}
}

func readRepoFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
