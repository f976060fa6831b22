package ccatscale

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed lists the exported functions kept without a caller,
// one reason each.
var uncalledAllowed = map[string]string{
	"padhye.MathisRegime":  "PFTK reference model for the planned conformance grid (ROADMAP.md): the Mathis asymptote C is checked against",
	"padhye.CrossoverLoss": "PFTK reference model for the planned conformance grid (ROADMAP.md): the loss rate where the grid switches from Mathis to PFTK",
}

// TestExportedFuncsAreCalled fails on an exported top-level function of
// internal/ that no non-test file of the module (bench/ included) and no
// test file of another package names: a function only its own tests
// call is surface nothing uses, so it goes or gets a caller. Matching is
// by identifier name, so a collision can only hide a finding, never
// invent one.
func TestExportedFuncsAreCalled(t *testing.T) {
	type export struct{ dir, key, name string }
	var exports []export
	used := map[string]bool{}                // names any non-test file mentions
	testUsed := map[string]map[string]bool{} // name → dirs of test files mentioning it
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || filepath.Ext(path) != ".go" {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, test := filepath.Dir(path), strings.HasSuffix(path, "_test.go")
		declared := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
				if n.Recv == nil && n.Name.IsExported() && !test && strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
					exports = append(exports, export{dir, f.Name.Name + "." + n.Name.Name, n.Name.Name})
				}
			case *ast.Ident:
				switch {
				case declared[n]:
				case !test:
					used[n.Name] = true
				default:
					if testUsed[n.Name] == nil {
						testUsed[n.Name] = map[string]bool{}
					}
					testUsed[n.Name][dir] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var uncalled []string
	for _, e := range exports {
		called := used[e.name] || uncalledAllowed[e.key] != ""
		for dir := range testUsed[e.name] {
			called = called || dir != e.dir
		}
		if !called {
			uncalled = append(uncalled, e.key)
		}
	}
	if len(uncalled) > 0 {
		sort.Strings(uncalled)
		t.Fatalf("exported functions nothing outside their own package's tests calls (delete them, or give each a caller or an uncalledAllowed reason):\n\t%s",
			strings.Join(uncalled, "\n\t"))
	}
}
