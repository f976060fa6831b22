package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"

	"ccatscale/internal/core"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

var update = flag.Bool("update", false, "rewrite testdata/catalog.golden with the tables the catalog prints now")

// TestCatalogGolden pins every entry's table — title, headers, rows — on
// a seconds-long lossy setting. testdata/catalog.golden was written by
// cmd/ccatscale's ten per-sweep renderers at the commit before the
// catalog replaced them, so passing means the catalog prints their bytes.
// Regenerate only for a deliberate change to a table, with
// `go test -run TestCatalogGolden -update ./internal/experiments`.
func TestCatalogGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden was generated on amd64; on %s the compiler may fuse multiply-adds, which changes float results", runtime.GOARCH)
	}
	s := core.Setting{
		Name:       "CatalogTest",
		Rate:       20 * units.MbitPerSec,
		Buffer:     48 * units.KB,
		FlowCounts: []int{4},
		Warmup:     sim.Second,
		Duration:   12 * sim.Second,
		Stagger:    100 * sim.Millisecond,
	}
	// ccatscale's flag defaults, then the two flags that pick a variant.
	base := Args{Seed: 7, CCA: "reno", Vs: "reno", RTTs: core.RTTs}
	type variant struct {
		cmd   string
		entry string
		args  Args
	}
	var cases []variant
	for _, e := range Catalog {
		cases = append(cases, variant{e.Name, e.Name, base})
		switch e.Name {
		case "intra":
			a := base
			a.CCA = "cubic"
			cases = append(cases, variant{"intra -cca cubic", e.Name, a})
		case "fig8":
			a := base
			a.Vs = "cubic"
			cases = append(cases, variant{"fig8 -vs cubic", e.Name, a})
		}
	}
	var got bytes.Buffer
	for _, c := range cases {
		e, ok := Lookup(c.entry)
		if !ok {
			t.Fatalf("Lookup(%q) failed", c.entry)
		}
		results, err := core.RunMany(e.Configs(s, c.args), 2)
		if err != nil {
			t.Fatalf("%s: %v", c.cmd, err)
		}
		tab := e.Table(s, c.args, results)
		if !slices.Equal(tab.Headers, e.Headers) {
			t.Errorf("%s: table headers %v, entry declares %v", c.cmd, tab.Headers, e.Headers)
		}
		fmt.Fprintf(&got, "== ccatscale %s ==\n", c.cmd)
		if err := tab.WriteText(&got); err != nil {
			t.Fatal(err)
		}
		got.WriteByte('\n')
	}
	const golden = "testdata/catalog.golden"
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("catalog tables differ from %s\n--- got\n%s--- want\n%s", golden, &got, want)
	}
}
