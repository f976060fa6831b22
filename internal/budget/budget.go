// Package budget is the resource-governance layer for experiment
// runs: per-run budgets (heap bytes, simulator-event footprint, wall
// clock, virtual horizon), a footprint estimator that predicts a
// configuration's cost before it runs, and the structured BudgetError
// that admission control and in-flight enforcement surface instead of
// letting one oversized configuration OOM the process and take every
// sibling job down with it. A run that does not fit is rejected or
// stopped.
//
// The package sits below internal/core: core declares a Budget on a
// RunConfig, runs admission control against the estimator at the start
// of RunCtx, and converts in-flight breaches (checked from the engine's
// interrupt hook) into replayable run errors carrying a Checkpoint of
// what completed.
package budget

import (
	"fmt"
	"time"

	"ccatscale/internal/sim"
)

// Kind names the budgeted resource a limit or breach refers to.
type Kind string

const (
	// KindHeapBytes bounds the process heap a run may occupy.
	KindHeapBytes Kind = "heap-bytes"
	// KindEvents bounds the simulator's event-object footprint: the event
	// slots the engine holds (sim.Engine.Cap — heap nodes plus the
	// entries parked in lanes).
	KindEvents Kind = "events"
	// KindWallClock bounds a run's wall-clock time.
	KindWallClock Kind = "wall-clock"
	// KindHorizon bounds a run's virtual end time (warm-up + duration).
	KindHorizon Kind = "virtual-horizon"
)

// Stages of enforcement recorded on a BudgetError.
const (
	// StageAdmission marks a configuration rejected before running,
	// from the estimator's predicted footprint.
	StageAdmission = "admission"
	// StageInFlight marks a running simulation stopped by a periodic
	// budget check.
	StageInFlight = "in-flight"
)

// Budget bounds one run's resource consumption. A zero field is
// unlimited; the zero Budget imposes no limits at all.
type Budget struct {
	// HeapBytes caps the process heap while the run executes. The check
	// is process-wide (Go heaps are not per-goroutine), so under a
	// parallel sweep it acts as a shared ceiling: whichever run observes
	// the breach stops first.
	HeapBytes int64 `json:"heapBytes,omitempty"`
	// Events caps the engine's event-object footprint (event slots held:
	// heap nodes plus entries parked in lanes).
	Events int64 `json:"events,omitempty"`
	// Wall caps the run's wall-clock time.
	Wall time.Duration `json:"wallNs,omitempty"`
	// Horizon caps the run's virtual end time.
	Horizon sim.Time `json:"horizonNs,omitempty"`
}

// Unlimited reports whether the budget imposes no limits.
func (b *Budget) Unlimited() bool {
	return b == nil || *b == Budget{}
}

// String renders the non-zero limits compactly.
func (b *Budget) String() string {
	if b.Unlimited() {
		return "unlimited"
	}
	s := ""
	app := func(format string, args ...interface{}) {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf(format, args...)
	}
	if b.HeapBytes > 0 {
		app("heap≤%dB", b.HeapBytes)
	}
	if b.Events > 0 {
		app("events≤%d", b.Events)
	}
	if b.Wall > 0 {
		app("wall≤%v", b.Wall)
	}
	if b.Horizon > 0 {
		app("horizon≤%v", b.Horizon)
	}
	return s
}

// Checkpoint records the progress a run had made when a budget breach
// stopped it — enough for a batch driver to account the partial work
// and for its failure record to say what was lost.
type Checkpoint struct {
	// VirtualTime is the simulation clock at the breach.
	VirtualTime sim.Time `json:"virtualTimeNs"`
	// Events is the number of simulator events processed.
	Events uint64 `json:"events"`
	// Wall is the wall-clock time consumed.
	Wall time.Duration `json:"wallNs"`
}

// BudgetError reports a budget breach: which resource, at which
// enforcement stage, the limit, and the observed (or predicted) value.
// Admission-stage errors carry no checkpoint (nothing ran); in-flight
// errors carry a Checkpoint of what completed.
type BudgetError struct {
	Kind     Kind   `json:"kind"`
	Stage    string `json:"stage"`
	Limit    int64  `json:"limit"`
	Observed int64  `json:"observed"`
	// Detail qualifies the numbers (e.g. that an admission value is an
	// estimate, or which component dominated).
	Detail string `json:"detail,omitempty"`
	// Checkpoint is the progress at an in-flight breach; nil at
	// admission.
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
}

// Error renders the breach on one line, structured enough to grep.
func (e *BudgetError) Error() string {
	s := fmt.Sprintf("budget: %s limit exceeded at %s: observed %d > limit %d",
		e.Kind, e.Stage, e.Observed, e.Limit)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	if e.Checkpoint != nil {
		s += fmt.Sprintf(" [completed: vt=%v events=%d wall=%v]",
			e.Checkpoint.VirtualTime, e.Checkpoint.Events, e.Checkpoint.Wall)
	}
	return s
}

// Usage records the resources a run (or, merged, a sweep) actually
// consumed — the observability side of governance, reported per job in
// reproduce's manifest.json.
type Usage struct {
	// Runs counts merged runs.
	Runs int `json:"runs,omitempty"`
	// Events is the cumulative simulator events processed.
	Events uint64 `json:"events"`
	// PeakEventCap is the largest event-object footprint observed
	// (sim.Engine.Cap: heap nodes, stopped timers' not yet dropped
	// included, plus entries parked in lanes).
	PeakEventCap int64 `json:"peakEventCap"`
	// TracePoints is the largest retained trace-point count observed.
	TracePoints int64 `json:"tracePoints,omitempty"`
	// PeakHeapBytes is the largest sampled process heap (0 when heap
	// sampling was off, i.e. no heap budget was set).
	PeakHeapBytes int64 `json:"peakHeapBytes,omitempty"`
	// PeakQueueBytes / PeakQueuePackets are the bottleneck queue's
	// high-water marks.
	PeakQueueBytes   int64 `json:"peakQueueBytes,omitempty"`
	PeakQueuePackets int64 `json:"peakQueuePackets,omitempty"`
	// Wall is the cumulative wall-clock time.
	Wall time.Duration `json:"wallNs"`
}

// Merge folds another run's usage into u: counters and wall time sum,
// peaks take the maximum.
func (u *Usage) Merge(o Usage) {
	u.Runs += max(o.Runs, 1)
	u.Events += o.Events
	u.Wall += o.Wall
	u.PeakEventCap = max(u.PeakEventCap, o.PeakEventCap)
	u.TracePoints = max(u.TracePoints, o.TracePoints)
	u.PeakHeapBytes = max(u.PeakHeapBytes, o.PeakHeapBytes)
	u.PeakQueueBytes = max(u.PeakQueueBytes, o.PeakQueueBytes)
	u.PeakQueuePackets = max(u.PeakQueuePackets, o.PeakQueuePackets)
}
