package budget

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ccatscale/internal/sim"
)

func refInput() Input {
	return Input{
		Flows:        40,
		RateBps:      200e6,
		BufferBytes:  7_500_000,
		BDPBytes:     5_000_000,
		FrameBytes:   1518,
		SegmentBytes: 1448,
		Horizon:      75 * sim.Second,
	}
}

func TestEstimateMonotone(t *testing.T) {
	base := Estimate(refInput())
	if base.HeapBytes <= 0 || base.Processed <= 0 || base.Wall <= 0 {
		t.Fatalf("degenerate base estimate: %+v", base)
	}

	bigger := refInput()
	bigger.Flows *= 10
	bigger.RateBps *= 10
	bigger.BufferBytes *= 10
	bigger.BDPBytes *= 10
	big := Estimate(bigger)
	if big.HeapBytes <= base.HeapBytes || big.Processed <= base.Processed ||
		big.Wall <= base.Wall || big.Events <= base.Events {
		t.Fatalf("10× scale did not grow the estimate:\nbase %+v\nbig  %+v", base, big)
	}

	longer := refInput()
	longer.Horizon *= 4
	long := Estimate(longer)
	if long.Processed <= base.Processed || long.Wall <= base.Wall {
		t.Fatalf("4× horizon did not grow processed events: base %+v long %+v", base, long)
	}
}

func TestEstimateTraceKnobs(t *testing.T) {
	in := refInput()
	in.SeriesInterval = 100 * sim.Millisecond
	in.SeriesWidth = 2
	withSeries := Estimate(in)
	without := Estimate(refInput())
	// 750 ticks × 2 series, each point priced at SeriesPointBytes.
	want := int64(75/0.1*2) * SeriesPointBytes
	if got := withSeries.HeapBytes - without.HeapBytes; got < want*9/10 || got > want*11/10 {
		t.Fatalf("series heap = %d, want ≈%d", got, want)
	}

	bounded := refInput()
	bounded.MaxDropTimestamps = 1000
	unbounded := Estimate(refInput())
	if got := Estimate(bounded); got.HeapBytes >= unbounded.HeapBytes {
		t.Fatalf("bounding drop timestamps did not shrink the heap: %d vs %d",
			got.HeapBytes, unbounded.HeapBytes)
	}
}

// TestEstimateChargesADropTimestampOnce: a retained drop timestamp is
// priced at DropTimestampBytes and nowhere else, so raising the bound
// by N raises the heap estimate by exactly N of them.
func TestEstimateChargesADropTimestampOnce(t *testing.T) {
	in := refInput()
	in.MaxDropTimestamps = 1000
	before := Estimate(in)
	const more = 4096
	in.MaxDropTimestamps += more
	if got, want := Estimate(in).HeapBytes-before.HeapBytes, int64(more*DropTimestampBytes); got != want {
		t.Fatalf("%d more drop timestamps raised the heap estimate by %d B, want %d (%d B each)",
			more, got, want, DropTimestampBytes)
	}
}

func TestCheckKinds(t *testing.T) {
	f := Estimate(refInput())
	horizon := refInput().Horizon
	for _, tc := range []struct {
		kind Kind
		b    Budget
	}{
		{KindHeapBytes, Budget{HeapBytes: f.HeapBytes - 1}},
		{KindEvents, Budget{Events: f.Events - 1}},
		{KindWallClock, Budget{Wall: f.Wall - 1}},
		{KindHorizon, Budget{Horizon: horizon - 1}},
	} {
		be := f.Check(&tc.b, horizon)
		if be == nil {
			t.Fatalf("%s: breach not detected", tc.kind)
		}
		if be.Kind != tc.kind || be.Stage != StageAdmission {
			t.Fatalf("%s: got kind %s stage %s", tc.kind, be.Kind, be.Stage)
		}
		if be.Observed <= be.Limit {
			t.Fatalf("%s: observed %d not above limit %d", tc.kind, be.Observed, be.Limit)
		}
		if be.Checkpoint != nil {
			t.Fatalf("%s: admission error carries a checkpoint", tc.kind)
		}
	}

	generous := Budget{HeapBytes: f.HeapBytes * 2, Events: f.Events * 2,
		Wall: f.Wall * 2, Horizon: horizon * 2}
	if be := f.Check(&generous, horizon); be != nil {
		t.Fatalf("fitting config rejected: %v", be)
	}
	if be := f.Check(nil, horizon); be != nil {
		t.Fatalf("nil budget rejected: %v", be)
	}
	if be := f.Check(&Budget{}, horizon); be != nil {
		t.Fatalf("zero budget rejected: %v", be)
	}
}

func TestBudgetErrorJSONRoundTrip(t *testing.T) {
	in := &BudgetError{
		Kind: KindEvents, Stage: StageInFlight, Limit: 100, Observed: 150,
		Detail:     "engine heap capacity",
		Checkpoint: &Checkpoint{VirtualTime: 3 * sim.Second, Events: 42, Wall: time.Millisecond},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out BudgetError
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.Stage != in.Stage || out.Limit != in.Limit ||
		out.Observed != in.Observed || out.Checkpoint == nil ||
		*out.Checkpoint != *in.Checkpoint {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	msg := in.Error()
	for _, want := range []string{"events", "in-flight", "150", "100", "vt="} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error message missing %q: %s", want, msg)
		}
	}
}

func TestBudgetStringAndUnlimited(t *testing.T) {
	var nilB *Budget
	if !nilB.Unlimited() {
		t.Fatal("nil budget not unlimited")
	}
	if !(&Budget{}).Unlimited() {
		t.Fatal("zero budget not unlimited")
	}
	b := &Budget{HeapBytes: 1 << 30, Events: 5000}
	if b.Unlimited() {
		t.Fatal("non-zero budget reported unlimited")
	}
	s := b.String()
	if !strings.Contains(s, "heap") || !strings.Contains(s, "events") {
		t.Fatalf("String() missing limits: %s", s)
	}
}

func TestUsageMerge(t *testing.T) {
	var u Usage
	u.Merge(Usage{Events: 100, PeakEventCap: 10, Wall: time.Second, PeakHeapBytes: 5})
	u.Merge(Usage{Events: 50, PeakEventCap: 30, Wall: time.Second, TracePoints: 7})
	if u.Runs != 2 || u.Events != 150 || u.PeakEventCap != 30 || u.Wall != 2*time.Second {
		t.Fatalf("merge sums/peaks wrong: %+v", u)
	}
	if u.PeakHeapBytes != 5 || u.TracePoints != 7 {
		t.Fatalf("merge peaks wrong: %+v", u)
	}
}
