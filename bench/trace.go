package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"ccatscale/internal/telemetry"
)

// span is one timed call into a layer, recorded at the boundary from
// this directory: the program itself carries no spans yet.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // spans of one operation share it
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the start of the traced run.
	StartNs int64 `json:"startNs"`
	EndNs   int64 `json:"endNs"`
	// Counts are the counters observed at this boundary.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths carry only a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 from a nil tracer).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: now})
	return id
}

// end closes a span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// count attaches a counter to a span.
func (t *tracer) count(id int, key string, v float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] += v
}

// in runs fn inside a span.
func (t *tracer) in(name string, parent, op int, fn func(id int)) {
	id := t.start(name, parent, op)
	fn(id)
	t.end(id)
}

// selfTimes returns, per span name, the summed self time in
// nanoseconds: a span's duration minus the part of it its child spans
// cover (children may overlap each other when clients run in parallel,
// so coverage is the union of their intervals, clipped to the parent).
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]int64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		var covered int64
		edge := s.StartNs
		for _, k := range kids {
			lo, hi := k.StartNs, k.EndNs
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += (s.EndNs - s.StartNs) - covered
	}
	return out
}

// write renders the spans and their per-name self times as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	doc := struct {
		Spans  []span           `json:"spans"`
		SelfNs map[string]int64 `json:"selfNs"`
	}{t.spans, selfTimes(t.spans)}
	t.mu.Unlock()
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runCounter is the telemetry.Collector attached to the traced
// core.Run: it counts what crosses the boundary — loss episodes by
// trigger, CCA state transitions, engine samples — and, being a public
// seam that only observes, leaves the run bit-identical (the traced
// op's fingerprint is checked like any other).
type runCounter struct {
	counts map[string]float64
}

func (c *runCounter) Emit(ev telemetry.Event) {
	key := ev.Kind.String()
	if ev.Kind == telemetry.KindLoss {
		key += "." + ev.Label
	}
	c.counts[key]++
}
