// Package telemetry is the live observability layer of the experiment
// harness: a run-scoped event stream (flow lifecycle, CCA state
// transitions, loss/recovery episodes, queue-occupancy watermarks,
// engine progress samples) and an atomic metrics registry for
// process-wide counters, gauges, and histograms.
//
// The design constraint is that observability must never perturb the
// observed system. Every instrumentation site in sim, netem, tcp, cca,
// and core guards on a nil Collector:
//
//	if c != nil {
//		c.Emit(telemetry.Event{...})
//	}
//
// so a disabled run (the default) pays one predictable branch per site,
// allocates nothing, and stays bit-identical to an uninstrumented
// build — cmd/fprint verifies this. Collectors only observe: they
// receive value-typed events after the simulation state they describe
// has been committed, and nothing a collector does can feed back into
// the event loop.
package telemetry

import (
	"ccatscale/internal/sim"
)

// Kind discriminates telemetry events.
type Kind uint8

const (
	// KindRunStart opens a run: A = flow count, B = seed (as int64).
	KindRunStart Kind = iota
	// KindRunEnd closes a run: A = engine events processed, B =
	// aggregate goodput in bits/sec.
	KindRunEnd
	// KindFlowStart marks a flow's first transmission: Flow, CCA, and
	// A = initial cwnd in bytes.
	KindFlowStart
	// KindFlowEnd reports a flow's window metrics at run end: Flow,
	// CCA, A = goodput in bits/sec, B = window drops.
	KindFlowEnd
	// KindCCAState is a congestion-control state transition (BBR v1/v2
	// expose one): Flow, CCA, Prev = old state, Label = new state.
	KindCCAState
	// KindLoss is a loss/recovery episode: Flow, CCA, Label =
	// "fast-recovery" or "rto", A = cwnd bytes before the episode's
	// multiplicative decrease, B = in-flight bytes.
	KindLoss
	// KindRecoveryExit marks the end of a fast-recovery episode: Flow,
	// A = cwnd bytes after recovery.
	KindRecoveryExit
	// KindQueueWatermark is a new bottleneck queue occupancy high-water
	// mark, observed at a sampling point: A = bytes, B = packets.
	KindQueueWatermark
	// KindEngineSample is a periodic engine progress sample: A =
	// events processed, B = live pending events.
	KindEngineSample
	// KindLinkDown / KindLinkUp bracket a scheduled outage window on
	// the forward path: Time = the exact window boundary, A = window
	// index in the schedule, B = window length in virtual nanoseconds.
	KindLinkDown
	KindLinkUp
)

// String names the kind as it appears in the JSONL stream.
func (k Kind) String() string {
	switch k {
	case KindRunStart:
		return "run-start"
	case KindRunEnd:
		return "run-end"
	case KindFlowStart:
		return "flow-start"
	case KindFlowEnd:
		return "flow-end"
	case KindCCAState:
		return "cca-state"
	case KindLoss:
		return "loss"
	case KindRecoveryExit:
		return "recovery-exit"
	case KindQueueWatermark:
		return "queue-watermark"
	case KindEngineSample:
		return "engine-sample"
	case KindLinkDown:
		return "link-down"
	case KindLinkUp:
		return "link-up"
	}
	return "unknown"
}

// Event is one telemetry observation. It is a flat value type so
// emitting one costs a struct fill and an interface call — no heap
// allocation at the emission site. The string fields always reference
// static or long-lived strings (CCA names, state names, kind labels),
// never per-event formatting.
//
// Field meaning is kind-specific; see the Kind constants.
type Event struct {
	// Time is the virtual timestamp of the observation.
	Time sim.Time
	// Kind discriminates the payload.
	Kind Kind
	// Flow is the flow index, or -1 for run- and link-scoped events.
	Flow int32
	// CCA is the flow's algorithm name, when flow-scoped.
	CCA string
	// Label is the kind-specific name payload (new state, loss kind).
	Label string
	// Prev is the previous state for KindCCAState.
	Prev string
	// A and B are the kind-specific numeric payload.
	A, B int64
}

// Collector receives telemetry events. Implementations must treat the
// event as read-only and must not call back into the simulation; they
// may be invoked from concurrent runs of a sweep and must be safe for
// that. A nil Collector means telemetry is off — every emission site
// checks for nil before constructing an event.
type Collector interface {
	Emit(ev Event)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(ev Event)

// Emit implements Collector.
func (f CollectorFunc) Emit(ev Event) { f(ev) }

// Multi fans every event out to each non-nil collector in order. A
// Multi of zero or one effective targets collapses to nil or the
// target itself, so emission sites never pay for an empty fan-out.
func Multi(cs ...Collector) Collector {
	var live []Collector
	for _, c := range cs {
		if c != nil {
			live = append(live, c)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Collector

func (m multi) Emit(ev Event) {
	for _, c := range m {
		c.Emit(ev)
	}
}
