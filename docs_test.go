package ccatscale

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameWhatExists fails when a living document names a command
// or a test that is gone: every `./cmd/<name>` must be a directory, and
// every Test…/Fuzz…/Benchmark… identifier must be a prefix of a
// function some _test.go declares (prefixes, because docs cite -run
// patterns). bench/ is frozen and CHANGES.md and ROADMAP.md are
// history, so they are not scanned.
func TestDocsNameWhatExists(t *testing.T) {
	docs := []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md", "results/README.md",
		".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml",
	}
	var funcs []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs = append(funcs, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cmdRef := regexp.MustCompile(`\./cmd/([A-Za-z0-9_]+)`)
	// Go names a test Test/Fuzz/Benchmark plus a non-lowercase rune, so
	// "Tests" and "Benchmarks" are English.
	testRef := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cmdRef.FindAllStringSubmatch(string(text), -1) {
			if st, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !st.IsDir() {
				t.Errorf("%s names %s, which is not a directory", doc, m[0])
			}
		}
		for _, name := range testRef.FindAllString(string(text), -1) {
			found := false
			for _, fn := range funcs {
				found = found || strings.HasPrefix(fn, name)
			}
			if !found {
				t.Errorf("%s names %s, which no _test.go declares", doc, name)
			}
		}
	}
}
