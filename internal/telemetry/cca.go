package telemetry

import (
	"ccatscale/internal/cca"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// stateMachine matches CCAs that expose a named state (BBR v1/v2). It
// mirrors audit.StateMachine without importing the audit package.
type stateMachine interface {
	State() string
}

// unwrapper matches transparent CCA wrappers (the audit wrapper) so the
// telemetry observer can find the state machine behind them.
type unwrapper interface {
	Unwrap() cca.CCA
}

// findStateMachine walks a wrapper chain looking for a named-state CCA.
func findStateMachine(ctrl cca.CCA) stateMachine {
	for ctrl != nil {
		if sm, ok := ctrl.(stateMachine); ok {
			return sm
		}
		u, ok := ctrl.(unwrapper)
		if !ok {
			return nil
		}
		ctrl = u.Unwrap()
	}
	return nil
}

// WrapCCA observes ctrl's state transitions for one flow, emitting a
// KindCCAState event after any callback that changed the named state.
// It is fully transparent: every decision still comes from the wrapped
// controller, and the cca.RecoveryController marker is preserved so the
// transport's recovery behavior is unchanged.
//
// CCAs without a named state (Reno, Cubic), and any call with a
// nil collector, return ctrl unwrapped — zero overhead.
func WrapCCA(ctrl cca.CCA, flow int32, c Collector) cca.CCA {
	if c == nil {
		return ctrl
	}
	sm := findStateMachine(ctrl)
	if sm == nil {
		return ctrl
	}
	w := &observedCCA{inner: ctrl, sm: sm, c: c, flow: flow, last: sm.State()}
	if _, controls := ctrl.(cca.RecoveryController); controls {
		return &observedRecoveryCCA{observedCCA: w}
	}
	return w
}

// observedCCA forwards every callback and emits a state-transition
// event when the named state changed across it.
type observedCCA struct {
	inner cca.CCA
	sm    stateMachine
	c     Collector
	flow  int32
	last  string
}

// observedRecoveryCCA re-exposes the RecoveryController marker.
type observedRecoveryCCA struct {
	*observedCCA
}

// ControlsRecovery implements cca.RecoveryController.
func (w *observedRecoveryCCA) ControlsRecovery() {}

// Unwrap returns the observed controller, keeping the wrapper chain
// walkable for further instrumentation.
func (w *observedCCA) Unwrap() cca.CCA { return w.inner }

func (w *observedCCA) Name() string { return w.inner.Name() }

func (w *observedCCA) Cwnd() units.ByteCount { return w.inner.Cwnd() }

func (w *observedCCA) PacingRate() units.Bandwidth { return w.inner.PacingRate() }

func (w *observedCCA) State() string { return w.sm.State() }

func (w *observedCCA) emitTransition(now sim.Time) {
	state := w.sm.State()
	if state == w.last {
		return
	}
	w.c.Emit(Event{
		Time:  now,
		Kind:  KindCCAState,
		Flow:  w.flow,
		CCA:   w.inner.Name(),
		Prev:  w.last,
		Label: state,
	})
	w.last = state
}

func (w *observedCCA) OnAck(ev cca.AckEvent) {
	w.inner.OnAck(ev)
	w.emitTransition(ev.Now)
}

func (w *observedCCA) OnEnterRecovery(now sim.Time, inFlight units.ByteCount) {
	w.inner.OnEnterRecovery(now, inFlight)
	w.emitTransition(now)
}

func (w *observedCCA) OnExitRecovery(now sim.Time) {
	w.inner.OnExitRecovery(now)
	w.emitTransition(now)
}

func (w *observedCCA) OnRTO(now sim.Time) {
	w.inner.OnRTO(now)
	w.emitTransition(now)
}

func (w *observedCCA) OnECNMark(now sim.Time, inFlight units.ByteCount) {
	w.inner.OnECNMark(now, inFlight)
	w.emitTransition(now)
}
