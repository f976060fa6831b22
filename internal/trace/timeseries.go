package trace

import (
	"fmt"
	"io"

	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// SeriesPoint is one sample of a goodput time series.
type SeriesPoint struct {
	At sim.Time
	// Rates holds the interval goodput per tracked series (bits/sec).
	Rates []units.Bandwidth
}

// ThroughputSeries periodically samples cumulative delivered-byte
// counters and records interval goodput per series — the data behind
// throughput-over-time plots (flow convergence, BBR probe cycles,
// capture effects).
type ThroughputSeries struct {
	eng      *sim.Engine
	interval sim.Time
	read     func() []units.ByteCount // cumulative delivered per series
	names    []string
	w        io.Writer
	keep     bool

	prev    []units.ByteCount
	points  []SeriesPoint
	rates   []units.Bandwidth // flat arena the points' Rates slices are cut from
	stopped bool
	started bool
}

// NewThroughputSeries samples read every interval. names labels each
// series (CSV header). If keep is true, points accumulate in memory; if
// w is non-nil each sample appends a CSV row "seconds,rate1,rate2,…".
func NewThroughputSeries(eng *sim.Engine, interval sim.Time, names []string, read func() []units.ByteCount, keep bool, w io.Writer) *ThroughputSeries {
	if interval <= 0 {
		panic("trace: non-positive series interval")
	}
	if read == nil {
		panic("trace: series without reader")
	}
	return &ThroughputSeries{
		eng:      eng,
		interval: interval,
		read:     read,
		names:    names,
		keep:     keep,
		w:        w,
	}
}

// Start begins sampling at virtual time at (the first tick records the
// baseline and emits nothing).
func (s *ThroughputSeries) Start(at sim.Time) {
	s.eng.Schedule(at, s.tick)
}

// Preallocate sizes the retained-point buffers for a run ending at
// horizon, so sampling never reallocates mid-run: the point slice and a
// flat rate arena are sized from horizon/interval up front. Call before
// Start; a no-op when points are not kept.
func (s *ThroughputSeries) Preallocate(horizon sim.Time) {
	if !s.keep || horizon <= 0 {
		return
	}
	n := int(horizon/s.interval) + 2
	if cap(s.points) < n {
		s.points = make([]SeriesPoint, 0, n)
	}
	if width := len(s.names); width > 0 && cap(s.rates) < n*width {
		s.rates = make([]units.Bandwidth, 0, n*width)
	}
}

// Stop halts sampling.
func (s *ThroughputSeries) Stop() { s.stopped = true }

// Points returns the retained samples.
func (s *ThroughputSeries) Points() []SeriesPoint { return s.points }

func (s *ThroughputSeries) tick() {
	if s.stopped {
		return
	}
	cur := s.read()
	if !s.started {
		s.started = true
		s.prev = append([]units.ByteCount(nil), cur...)
		if s.w != nil && len(s.names) > 0 {
			fmt.Fprint(s.w, "seconds")
			for _, n := range s.names {
				fmt.Fprintf(s.w, ",%s", n)
			}
			fmt.Fprintln(s.w)
		}
		s.eng.After(s.interval, s.tick)
		return
	}
	pt := SeriesPoint{At: s.eng.Now(), Rates: s.takeRates(len(cur))}
	for i := range cur {
		var delta units.ByteCount
		if i < len(s.prev) {
			delta = cur[i] - s.prev[i]
		} else {
			delta = cur[i]
		}
		pt.Rates[i] = units.Throughput(delta, s.interval)
	}
	s.prev = append(s.prev[:0], cur...)
	if s.keep {
		s.points = append(s.points, pt)
	}
	if s.w != nil {
		fmt.Fprintf(s.w, "%.3f", pt.At.Seconds())
		for _, r := range pt.Rates {
			fmt.Fprintf(s.w, ",%d", int64(r))
		}
		fmt.Fprintln(s.w)
	}
	s.eng.After(s.interval, s.tick)
}

// takeRates cuts an n-wide rate slice from the preallocated arena, or
// allocates one when the arena is exhausted (or was never sized).
func (s *ThroughputSeries) takeRates(n int) []units.Bandwidth {
	if cap(s.rates)-len(s.rates) < n {
		return make([]units.Bandwidth, n)
	}
	start := len(s.rates)
	s.rates = s.rates[: start+n : start+n]
	return s.rates[start : start+n : start+n]
}
