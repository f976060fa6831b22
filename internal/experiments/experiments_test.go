package experiments

import (
	"bytes"
	"context"
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
// the one-table CLI's ten per-sweep renderers at the commit before the
// catalog replaced them, so passing means the catalog prints their bytes
// (its section labels still name that CLI's commands);
// the one section written since is mathis, whose row is checked below
// against the four sections it replaced. Every entry runs the setting's
// own window over core.RTTs here — what an entry declares about its run
// length is TestBindAppliesTheDeclaredRunLength's.
// Regenerate only for a deliberate change to a table, with
// `go test ./internal/experiments -run TestCatalogGolden -update`.
func TestCatalogGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden was generated on amd64; on %s the compiler may fuse multiply-adds, which changes float results", runtime.GOARCH)
	}
	s := core.Setting{
		Name:       "CatalogTest",
		FlowCounts: []int{4},
		RunConfig: core.RunConfig{
			Rate:     20 * units.MbitPerSec,
			Buffer:   48 * units.KB,
			Warmup:   sim.Second,
			Duration: 12 * sim.Second,
			Stagger:  100 * sim.Millisecond,
		},
	}
	// The golden's default args, then the two that pick a variant.
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
		cfgs := e.Configs(s, c.args)
		results := make([]core.RunResult, len(cfgs))
		for i, cfg := range cfgs {
			res, err := core.RunCtx(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s: config %d: %v", c.cmd, i, err)
			}
			results[i] = res
		}
		tab := e.Table(s, c.args, results)
		if !slices.Equal(tab.Headers, e.Headers) {
			t.Errorf("%s: table headers %v, entry declares %v", c.cmd, tab.Headers, e.Headers)
		}
		if c.cmd == "mathis" {
			// The cells the table1, fig2, fig3 and burstiness sections of
			// the golden held for this setting, in that order (table1's
			// utilization moved to the end).
			want := []string{"CatalogTest", "4", "1.341", "1.143", "2.339", "1.005", "1.388", "0.233", "0.997"}
			if len(tab.Rows) != 1 || !slices.Equal(tab.Rows[0], want) {
				t.Errorf("mathis rows %v, want the four views' cells %v", tab.Rows, want)
			}
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

// TestBindAppliesTheDeclaredRunLength: run length is data on the entry —
// a factor over the setting's window, and the RTT set — and Bind is the
// one place it is applied, so it scales with the tier.
func TestBindAppliesTheDeclaredRunLength(t *testing.T) {
	quick := core.CoreScaleScaled(250)
	quick.Duration = 20 * sim.Second // the window of cmd/reproduce -quick
	for _, tc := range []struct {
		entry   string
		setting core.Setting
		configs int
		window  sim.Time
		rtts    []sim.Time
	}{
		{"fig8", core.CoreScaleScaled(25), 9, 150 * sim.Second, core.RTTs},
		{"fig8", quick, 9, 50 * sim.Second, core.RTTs},
		{"fig4", core.CoreScaleScaled(25), 9, 90 * sim.Second, core.RTTs},
		{"fig6", core.CoreScaleScaled(25), 9, 120 * sim.Second, core.RTTs},
		{"intra", core.CoreScaleScaled(25), 3, 120 * sim.Second, []sim.Time{20 * sim.Millisecond}},
		{"mathis", core.EdgeScale(), 3, 60 * sim.Second, core.RTTs},
	} {
		e, _ := Lookup(tc.entry)
		s, a := e.Bind(tc.setting, Args{Seed: 7, CCA: "reno", Vs: "reno"})
		if !slices.Equal(a.RTTs, tc.rtts) {
			t.Errorf("%s on %s: RTTs %v, want %v", tc.entry, tc.setting.Name, a.RTTs, tc.rtts)
		}
		cfgs := e.Configs(s, a)
		if len(cfgs) != tc.configs {
			t.Errorf("%s on %s: %d configs, want %d", tc.entry, tc.setting.Name, len(cfgs), tc.configs)
		}
		for i, cfg := range cfgs {
			if cfg.Duration != tc.window {
				t.Errorf("%s on %s: config %d runs %v, want %v", tc.entry, tc.setting.Name, i, cfg.Duration, tc.window)
			}
		}
	}
}
