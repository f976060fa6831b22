package telemetry

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"ccatscale/internal/cca"
	"ccatscale/internal/schema"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// recorder captures emitted events for assertions.
type recorder struct {
	mu  sync.Mutex
	evs []Event
}

func (r *recorder) Emit(ev Event) {
	r.mu.Lock()
	r.evs = append(r.evs, ev)
	r.mu.Unlock()
}

func TestKindStringsAreUnique(t *testing.T) {
	seen := map[string]Kind{}
	for k := KindRunStart; k <= KindLinkUp; k++ {
		s := k.String()
		if s == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("kinds %d and %d share the name %q", prev, k, s)
		}
		seen[s] = k
	}
	if got := Kind(200).String(); got != "unknown" {
		t.Fatalf("out-of-range kind = %q, want unknown", got)
	}
}

func TestMultiCollapses(t *testing.T) {
	if Multi() != nil {
		t.Fatal("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) should be nil")
	}
	r := &recorder{}
	if got := Multi(nil, r, nil); got != Collector(r) {
		t.Fatal("Multi with one live target should return it unwrapped")
	}
	r2 := &recorder{}
	m := Multi(r, nil, r2)
	m.Emit(Event{Kind: KindLoss, A: 7})
	if len(r.evs) != 1 || len(r2.evs) != 1 || r.evs[0].A != 7 || r2.evs[0].A != 7 {
		t.Fatalf("fan-out did not reach both collectors: %v / %v", r.evs, r2.evs)
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(4)
	if got := r.Counter("hits").Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.Gauge("depth")
	g.Set(10)
	g.Max(3) // lower: no-op
	g.Max(42)
	if got := r.Gauge("depth").Load(); got != 42 {
		t.Fatalf("gauge = %d, want 42", got)
	}

	h := r.Histogram("lat", []int64{10, 100})
	for _, v := range []int64{1, 9, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1031 {
		t.Fatalf("histogram count/sum = %d/%d, want 5/1031", h.Count(), h.Sum())
	}

	snap := r.Snapshot()
	if snap.SchemaVersion != schema.Version {
		t.Fatalf("snapshot schema = %q, want %q", snap.SchemaVersion, schema.Version)
	}
	if snap.Counters["hits"] != 5 || snap.Gauges["depth"] != 42 {
		t.Fatalf("snapshot values wrong: %+v", snap)
	}
	hs := snap.Histograms["lat"]
	want := []int64{3, 1, 1} // ≤10, ≤100, overflow
	for i, b := range want {
		if hs.Buckets[i] != b {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, hs.Buckets[i], b, hs)
		}
	}
}

func TestNilRegistryIsDisabledButUsable(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(9)
	r.Histogram("z", []int64{1}).Observe(2)
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot should be empty: %+v", snap)
	}
	if r.Instrument() != nil {
		t.Fatal("nil registry Instrument() should be nil")
	}
}

func TestInstrumentFoldsEvents(t *testing.T) {
	r := NewRegistry()
	coll := r.Instrument()
	coll.Emit(Event{Kind: KindRunStart})
	coll.Emit(Event{Kind: KindLoss})
	coll.Emit(Event{Kind: KindLoss})
	coll.Emit(Event{Kind: KindCCAState})
	coll.Emit(Event{Kind: KindQueueWatermark, A: 100, B: 2})
	coll.Emit(Event{Kind: KindQueueWatermark, A: 50, B: 1}) // lower: peak holds
	coll.Emit(Event{Kind: KindEngineSample, A: 12345})
	coll.Emit(Event{Kind: KindRunEnd})

	snap := r.Snapshot()
	checks := map[string]int64{
		"runs_started":                1,
		"runs_ended":                  1,
		"loss_episodes_total":         2,
		"cca_transitions_total":       1,
		"telemetry_events_total/loss": 2,
	}
	for name, want := range checks {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if snap.Gauges["queue_bytes_peak"] != 100 || snap.Gauges["queue_packets_peak"] != 2 {
		t.Errorf("queue peaks = %d/%d, want 100/2",
			snap.Gauges["queue_bytes_peak"], snap.Gauges["queue_packets_peak"])
	}
	if snap.Gauges["engine_events_processed"] != 12345 {
		t.Errorf("engine gauge = %d, want 12345", snap.Gauges["engine_events_processed"])
	}
}

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s, err := NewStream(&buf, "unit test")
	if err != nil {
		t.Fatal(err)
	}
	coll := s.Collector("run-a")
	coll.Emit(Event{Time: 2 * sim.Second, Kind: KindLoss, Flow: 3, CCA: "reno", Label: "rto", A: 9000, B: 4500})
	coll.Emit(Event{Time: 3 * sim.Second, Kind: KindCCAState, Flow: 0, CCA: "bbr", Prev: "startup", Label: "drain"})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	var recs []StreamRecord
	if err := ParseStream(bytes.NewReader(buf.Bytes()), func(rec StreamRecord) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("parsed %d records, want 2", len(recs))
	}
	r0 := recs[0]
	if r0.Kind != "loss" || r0.Run != "run-a" || r0.T != 2.0 || r0.Flow != 3 ||
		r0.CCA != "reno" || r0.Label != "rto" || r0.A != 9000 || r0.B != 4500 {
		t.Fatalf("record 0 mismatch: %+v", r0)
	}
	if recs[1].Prev != "startup" || recs[1].Label != "drain" {
		t.Fatalf("record 1 mismatch: %+v", recs[1])
	}
}

func TestParseStreamRejectsBadInput(t *testing.T) {
	cases := []struct {
		name, input, wantErr string
	}{
		{"empty", "", "empty stream"},
		{"no header", `{"k":"loss"}`, "does not start with a header"},
		{"future major", `{"k":"header","schema_version":"99.0","tool":"ccatscale"}`, "schema"},
		{"garbage", "not json\n", "line 1"},
	}
	for _, tc := range cases {
		err := ParseStream(strings.NewReader(tc.input), func(StreamRecord) error { return nil })
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestStreamErrorIsSticky(t *testing.T) {
	s, err := NewStream(&failWriter{n: 1 << 10}, "x")
	if err != nil {
		t.Fatal(err)
	}
	coll := s.Collector("r")
	// Overflow the 64 KiB buffer so writes hit the failing writer.
	for i := 0; i < 5000; i++ {
		coll.Emit(Event{Kind: KindLoss, Label: "fast-recovery", CCA: "cubic", A: 1 << 40, B: 1 << 40})
	}
	s.Flush()
	if s.Err() == nil {
		t.Fatal("expected sticky write error")
	}
	// Later emissions and flushes stay no-ops reporting the same error.
	coll.Emit(Event{Kind: KindLoss})
	if err := s.Flush(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("sticky error lost: %v", err)
	}
}

// fakeStateCCA is a minimal named-state CCA for wrapper tests.
type fakeStateCCA struct {
	state string
}

func (f *fakeStateCCA) Name() string                              { return "fake" }
func (f *fakeStateCCA) OnAck(cca.AckEvent)                        { f.state = "acked" }
func (f *fakeStateCCA) OnEnterRecovery(sim.Time, units.ByteCount) { f.state = "recovery" }
func (f *fakeStateCCA) OnExitRecovery(sim.Time)                   { f.state = "open" }
func (f *fakeStateCCA) OnRTO(sim.Time)                            { f.state = "loss" }
func (f *fakeStateCCA) OnECNMark(sim.Time, units.ByteCount)       { f.state = "marked" }
func (f *fakeStateCCA) Cwnd() units.ByteCount                     { return 10 * 1460 }
func (f *fakeStateCCA) PacingRate() units.Bandwidth               { return 0 }
func (f *fakeStateCCA) State() string                             { return f.state }

// fakeRecoveryCCA adds the RecoveryController marker.
type fakeRecoveryCCA struct{ fakeStateCCA }

func (f *fakeRecoveryCCA) ControlsRecovery() {}

// statelessCCA has no named state.
type statelessCCA struct{}

func (statelessCCA) Name() string                              { return "plain" }
func (statelessCCA) OnAck(cca.AckEvent)                        {}
func (statelessCCA) OnEnterRecovery(sim.Time, units.ByteCount) {}
func (statelessCCA) OnExitRecovery(sim.Time)                   {}
func (statelessCCA) OnRTO(sim.Time)                            {}
func (statelessCCA) OnECNMark(sim.Time, units.ByteCount)       {}
func (statelessCCA) Cwnd() units.ByteCount                     { return 1460 }
func (statelessCCA) PacingRate() units.Bandwidth               { return 0 }

func TestWrapCCAPassthrough(t *testing.T) {
	ctrl := &fakeStateCCA{state: "startup"}
	if got := WrapCCA(ctrl, 0, nil); got != cca.CCA(ctrl) {
		t.Fatal("nil collector should return the controller unwrapped")
	}
	r := &recorder{}
	var plain statelessCCA
	if got := WrapCCA(plain, 0, r); got != cca.CCA(plain) {
		t.Fatal("stateless CCA should return unwrapped even with a collector")
	}
}

func TestWrapCCAEmitsTransitions(t *testing.T) {
	ctrl := &fakeStateCCA{state: "startup"}
	r := &recorder{}
	w := WrapCCA(ctrl, 5, r)
	if w == cca.CCA(ctrl) {
		t.Fatal("named-state CCA with a collector should be wrapped")
	}
	if _, controls := w.(cca.RecoveryController); controls {
		t.Fatal("wrapper must not invent the RecoveryController marker")
	}

	w.OnEnterRecovery(sim.Second, 100)
	w.OnEnterRecovery(2*sim.Second, 100) // same state: no event
	w.OnRTO(3 * sim.Second)
	if len(r.evs) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(r.evs), r.evs)
	}
	first := r.evs[0]
	if first.Kind != KindCCAState || first.Flow != 5 || first.CCA != "fake" ||
		first.Prev != "startup" || first.Label != "recovery" || first.Time != sim.Second {
		t.Fatalf("transition event mismatch: %+v", first)
	}
	if r.evs[1].Prev != "recovery" || r.evs[1].Label != "loss" {
		t.Fatalf("second transition mismatch: %+v", r.evs[1])
	}
}

func TestWrapCCAPreservesRecoveryController(t *testing.T) {
	ctrl := &fakeRecoveryCCA{fakeStateCCA{state: "startup"}}
	r := &recorder{}
	w := WrapCCA(ctrl, 0, r)
	if _, controls := w.(cca.RecoveryController); !controls {
		t.Fatal("wrapper dropped the RecoveryController marker")
	}
	u, ok := w.(interface{ Unwrap() cca.CCA })
	if !ok || u.Unwrap() != cca.CCA(ctrl) {
		t.Fatal("wrapper chain must stay walkable via Unwrap")
	}
}
