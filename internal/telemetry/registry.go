package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"ccatscale/internal/schema"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; Add and Inc are safe from concurrent runs and never
// allocate.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; this is not checked on the hot
// path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic last-value cell. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by delta (negative to decrement) — the shape
// in-flight tracking needs.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Max raises the gauge to n if n is larger (a high-water-mark update).
func (g *Gauge) Max(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets with atomic cells.
// Bounds are inclusive upper edges in ascending order; one implicit
// overflow bucket catches everything above the last bound. Observe is
// lock-free and allocation-free.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// NewHistogram builds a histogram over the given ascending inclusive
// upper bounds.
func NewHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Registry is a named collection of counters, gauges, and histograms.
// Get-or-create accessors take a lock; callers on hot paths resolve
// their instrument once and hold the pointer, after which every update
// is a single atomic op. A nil *Registry is a valid "disabled"
// registry: accessors return unregistered instruments that still work
// but appear in no snapshot, so instrumented code needs no nil checks
// beyond its Collector guard.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's state in a Snapshot.
type HistogramSnapshot struct {
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
}

// Snapshot is a point-in-time copy of a registry, shaped for JSON
// (the /metricsz endpoint and tests). Maps iterate non-deterministically
// but encoding/json sorts object keys, so serialized snapshots are
// stable.
type Snapshot struct {
	SchemaVersion string                       `json:"schema_version"`
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]int64             `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		SchemaVersion: schema.Version,
		Counters:      map[string]int64{},
		Gauges:        map[string]int64{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Load()
	}
	if len(r.histograms) > 0 {
		snap.Histograms = map[string]HistogramSnapshot{}
		for name, h := range r.histograms {
			hs := HistogramSnapshot{
				Bounds:  append([]int64(nil), h.bounds...),
				Buckets: make([]int64, len(h.buckets)),
				Count:   h.count.Load(),
				Sum:     h.sum.Load(),
			}
			for i := range h.buckets {
				hs.Buckets[i] = h.buckets[i].Load()
			}
			snap.Histograms[name] = hs
		}
	}
	return snap
}

// Instrument returns a Collector that folds the event stream into the
// registry: one "telemetry_events_total/<kind>" counter per kind, plus
// derived gauges — peak queue occupancy, engine progress, loss and
// state-transition totals. It is the bridge between the event stream
// and the /metricsz snapshot.
func (r *Registry) Instrument() Collector {
	if r == nil {
		return nil
	}
	// Resolve every instrument once; Emit then touches only atomics.
	perKind := [KindLinkUp + 1]*Counter{}
	for k := KindRunStart; k <= KindLinkUp; k++ {
		perKind[k] = r.Counter("telemetry_events_total/" + k.String())
	}
	var (
		queueBytesMax = r.Gauge("queue_bytes_peak")
		queuePktsMax  = r.Gauge("queue_packets_peak")
		engineEvents  = r.Gauge("engine_events_processed")
		runsStarted   = r.Counter("runs_started")
		runsEnded     = r.Counter("runs_ended")
		losses        = r.Counter("loss_episodes_total")
		transitions   = r.Counter("cca_transitions_total")
	)
	return CollectorFunc(func(ev Event) {
		if int(ev.Kind) < len(perKind) && perKind[ev.Kind] != nil {
			perKind[ev.Kind].Inc()
		}
		switch ev.Kind {
		case KindRunStart:
			runsStarted.Inc()
		case KindRunEnd:
			runsEnded.Inc()
		case KindLoss:
			losses.Inc()
		case KindCCAState:
			transitions.Inc()
		case KindQueueWatermark:
			queueBytesMax.Max(ev.A)
			queuePktsMax.Max(ev.B)
		case KindEngineSample:
			engineEvents.Set(ev.A)
		}
	})
}
