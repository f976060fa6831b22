package core

import (
	"testing"

	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// faultSetting is a small, fast regime for the fault-injection sweeps:
// enough bandwidth that the injected loss, not the bottleneck share,
// limits each of the 8 burst-sweep flows.
func faultSetting() Setting {
	return Setting{
		Name:       "FaultTest",
		FlowCounts: []int{4},
		RunConfig: RunConfig{
			Rate:     100 * units.MbitPerSec,
			Buffer:   512 * units.KB,
			Warmup:   sim.Second,
			Duration: 8 * sim.Second,
			Stagger:  500 * sim.Millisecond,
		},
	}
}

func TestBurstLossSweepModelBreakdown(t *testing.T) {
	s := faultSetting()
	rows := BurstLossRows(s, runPlan(t, BurstLossConfigs(s, 21)))
	if len(rows) != len(BurstLens) {
		t.Fatalf("%d rows, want %d", len(rows), len(BurstLens))
	}
	for _, r := range rows {
		if r.BurstDrops == 0 {
			t.Fatalf("burst len %v: no channel drops", r.BurstLen)
		}
		if r.GoodputPerFlow <= 0 || r.PredictIID <= 0 {
			t.Fatalf("burst len %v: degenerate goodput %v / prediction %v", r.BurstLen, r.GoodputPerFlow, r.PredictIID)
		}
	}
	// In the model's home regime (iid loss) the prediction is in the
	// right ballpark…
	if rows[0].ModelRatio < 0.4 || rows[0].ModelRatio > 2.5 {
		t.Fatalf("iid model ratio = %v, want ≈1", rows[0].ModelRatio)
	}
	// …and lengthening bursts at the same mean loss pushes measured
	// throughput above what the iid model predicts (one halving per
	// burst instead of one per drop).
	if last, first := rows[len(rows)-1].ModelRatio, rows[0].ModelRatio; last <= first {
		t.Fatalf("model ratio did not grow with burst length: %v (len %v) vs %v (len 1)",
			last, rows[len(rows)-1].BurstLen, first)
	}
	// Drops per halving grows with burst length too (Figure 3's
	// mechanism, injected rather than emergent).
	if rows[len(rows)-1].DropsPerHalving <= rows[0].DropsPerHalving {
		t.Fatalf("drops/halving did not grow with burst length: %v vs %v",
			rows[len(rows)-1].DropsPerHalving, rows[0].DropsPerHalving)
	}
}

func TestBurstLossSweepDeterministic(t *testing.T) {
	s := faultSetting()
	a := BurstLossRows(s, runPlan(t, BurstLossConfigs(s, 5)))
	b := BurstLossRows(s, runPlan(t, BurstLossConfigs(s, 5)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d diverged under the same seed:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestOutageSweepRecovery(t *testing.T) {
	s := faultSetting()
	rows := OutageRows(s, runPlan(t, OutageConfigs(s, 31)))
	if len(rows) != len(OutageCCAs)*len(OutageDowns) {
		t.Fatalf("%d rows, want %d", len(rows), len(OutageCCAs)*len(OutageDowns))
	}
	for _, r := range rows {
		if r.OutageDrops == 0 {
			t.Fatalf("%s down=%v: no outage drops", r.CCA, r.Down)
		}
		if r.GoodputFrac <= 0 || r.GoodputFrac > 1.05 {
			t.Fatalf("%s down=%v: goodput fraction %v outside (0, 1]", r.CCA, r.Down, r.GoodputFrac)
		}
		if r.JFI <= 0 || r.JFI > 1 {
			t.Fatalf("%s down=%v: JFI %v", r.CCA, r.Down, r.JFI)
		}
	}
	// A 3 s blackout must cost visibly more goodput than a 200 ms blip
	// for the same CCA.
	byKey := map[string]OutageRow{}
	for _, r := range rows {
		byKey[r.CCA+r.Down.String()] = r
	}
	for _, cca := range OutageCCAs {
		short := byKey[cca+OutageDowns[0].String()]
		long := byKey[cca+OutageDowns[len(OutageDowns)-1].String()]
		if long.GoodputFrac >= short.GoodputFrac {
			t.Fatalf("%s: %v outage (frac %v) not worse than %v (frac %v)",
				cca, long.Down, long.GoodputFrac, short.Down, short.GoodputFrac)
		}
		if long.RTOs == 0 {
			t.Fatalf("%s: a %v blackout produced no RTOs", cca, long.Down)
		}
	}
}
