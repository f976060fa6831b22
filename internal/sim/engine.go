// Package sim provides the discrete-event simulation engine that drives
// every experiment in this repository: a virtual clock, an event queue,
// re-armable timers, FIFO lanes for constant-delay streams, and a
// deterministic pseudo-random number generator.
//
// The engine is single-threaded by design. An experiment run schedules
// closures at virtual timestamps; Run executes them in timestamp order
// (FIFO among equal timestamps) until the horizon is reached, the event
// queue drains, or the run is stopped. Determinism is a hard requirement:
// two runs with the same configuration and seed produce bit-identical
// results, which makes every reported number in EXPERIMENTS.md
// reproducible.
//
// The heap holds only what can reorder. Everything scheduled — a
// one-shot event, a Timer arm, a Lane entry — draws one (at, seq) key at
// the call, and firing order is exactly the order of those keys. A
// one-shot event is a pooled heap node. A Timer or Lane owns one
// permanent node: its true key is the key of its next firing, and only
// the node's position in the heap is lazy (see node). The hot path is
// allocation-free in steady state. At CoreScale (hundreds of millions
// of packet, timer, and sample events per run) this is the difference
// between running at memory speed and running at garbage-collector
// speed.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
//
// Virtual nanoseconds are stored in an int64, which covers runs of about
// 292 years — far beyond the paper's 3-hour experiments.
type Time int64

// Common durations, mirroring the time package so call sites read
// naturally (5*sim.Second) without importing time for arithmetic.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// MaxTime is the largest representable virtual time. It is used as the
// horizon for runs that should only terminate by convergence or event
// exhaustion.
const MaxTime = Time(math.MaxInt64)

// Duration converts a standard library duration to virtual time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Std converts a virtual time to a standard library duration.
func (t Time) Std() time.Duration { return time.Duration(t) }

// Seconds reports the time as floating-point seconds. Intended for
// metric computation and reporting, not for scheduling arithmetic.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with the standard library's duration rules.
func (t Time) String() string { return time.Duration(t).String() }

// node is one heap entry, ordered by (at, seq).
//
// A one-shot event's node comes from the engine's pool, is popped before
// its fn runs and returns to the pool.
//
// A permanent node (perm) belongs to a Timer or a Lane and is never
// freed. Its true key (dueAt, dueSeq) is exactly what Schedule would
// have assigned to the next firing; (at, seq) is only where it sits, and
// is never later than the true key. Re-arming therefore touches the heap
// only to insert an absent node or to move one whose deadline came
// earlier; every other correction waits until the node reaches the
// root, where Run drops it if disarmed, re-keys it if its true key is
// later, and otherwise fires it where it sits.
type node struct {
	at  Time
	seq uint64
	fn  func()
	idx int // position in Engine.queue; -1 while a permanent node is out of the heap

	perm   bool
	armed  bool
	dueAt  Time
	dueSeq uint64
}

func (n *node) initPerm(fn func()) { n.fn, n.perm, n.idx = fn, true, -1 }

// Engine is a discrete-event simulator. The zero value is not usable;
// construct one with NewEngine.
type Engine struct {
	now     Time
	queue   []*node // binary min-heap ordered by (at, seq)
	nextSeq uint64
	stopped bool

	// live counts what is still going to fire: one-shot events, armed
	// timers and lane entries. parked counts the lane entries among
	// them, which wait in their lane's ring rather than in the heap.
	live   int
	parked int

	// free is the one-shot node pool: fired events are recycled here so
	// steady-state scheduling never allocates.
	free []*node

	// processed counts events executed so far; useful for progress
	// reporting and for sanity limits in tests.
	processed uint64

	// interruptEvery/interruptFn implement the supervisor hook: Run
	// calls interruptFn after every interruptEvery-th processed event.
	interruptEvery uint64
	interruptFn    func()

	// auditFn, when set, receives engine invariant violations (a
	// non-monotone clock, an event scheduled in the past) as structured
	// reports instead of — or, for causality-protecting panics, in
	// addition to — a bare panic. Installed by the run supervisor; the
	// engine stays free of upward dependencies.
	auditFn func(check, detail string)
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{queue: make([]*node, 0, 1024)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports the number of callbacks fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Len reports exactly how many firings are pending: one-shot events,
// armed timers and lane entries. The run supervisor's stall guard and
// the engine-sample telemetry record rely on this being a count, not an
// estimate inflated by disarmed timer nodes still in the heap.
func (e *Engine) Len() int { return e.live }

// Cap reports the event slots held: heap nodes (disarmed timers not yet
// dropped included) plus the entries parked in lanes — the engine's
// memory footprint indicator.
func (e *Engine) Cap() int { return len(e.queue) + e.parked }

// stamp admits one schedule at virtual time at and draws its seq.
// Scheduling in the past panics: it always indicates a logic error in
// the caller, and silently clamping would corrupt causality.
func (e *Engine) stamp(at Time) uint64 {
	if at < e.now {
		if e.auditFn != nil {
			// Under a strict auditor this panics with the structured
			// violation; under warn it records, and the panic below
			// still protects causality.
			e.auditFn("sim/schedule-in-past", fmt.Sprintf("event at %v before now %v", at, e.now))
		}
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	seq := e.nextSeq
	e.nextSeq++
	e.live++
	return seq
}

// Schedule runs fn at virtual time at; an at before Now panics.
func (e *Engine) Schedule(at Time, fn func()) {
	seq := e.stamp(at)
	var n *node
	if last := len(e.free) - 1; last >= 0 {
		n = e.free[last]
		e.free = e.free[:last]
	} else {
		n = new(node)
	}
	n.at, n.seq, n.fn = at, seq, fn
	e.push(n)
}

// After runs fn after delay d. A non-positive delay schedules for the
// current instant (the event still goes through the queue, after any
// events already scheduled for now).
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+max(d, 0), fn) }

// arm gives a permanent node its next true key, freshly stamped (so no
// seq in the heap is newer). The heap is touched only when the node is
// absent or now due before the key it sits under; a later deadline
// leaves the position stale for Run to correct.
func (e *Engine) arm(n *node, at Time, seq uint64) {
	n.armed, n.dueAt, n.dueSeq = true, at, seq
	switch {
	case n.idx < 0:
		n.at, n.seq = at, seq
		e.push(n)
	case at < n.at:
		n.at, n.seq = at, seq
		e.up(n, n.idx)
	}
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop was called during the current or most
// recent Run.
func (e *Engine) Stopped() bool { return e.stopped }

// SetInterrupt installs a supervisor hook: Run invokes fn after every
// every-th processed event. The hook exists for watchdogs — checking a
// wall-clock budget or detecting a stalled virtual clock — which then
// end the run gracefully via Stop instead of aborting the process. A
// zero interval or nil fn removes the hook.
//
// The hook must not schedule or stop events; it observes and stops.
// Because it runs on the event-loop thread at deterministic points, a
// hook that inspects only virtual state cannot perturb determinism;
// one that inspects wall-clock time trades determinism for liveness
// only in the runs it actually stops.
func (e *Engine) SetInterrupt(every uint64, fn func()) {
	if every == 0 || fn == nil {
		e.interruptEvery, e.interruptFn = 0, nil
		return
	}
	e.interruptEvery, e.interruptFn = every, fn
}

// SetAudit installs the engine's invariant reporter: fn receives a
// check name ("sim/...") and a detail string whenever an engine
// invariant fails. Like the interrupt hook, the reporter observes only
// virtual state at deterministic points, so it cannot perturb
// determinism. A nil fn removes the hook.
func (e *Engine) SetAudit(fn func(check, detail string)) { e.auditFn = fn }

// Run executes events in timestamp order until the queue is empty, the
// next event lies beyond horizon, or Stop is called. It returns the
// virtual time at which execution stopped: the horizon if it was
// reached, otherwise the time of the last executed event.
//
// Events scheduled exactly at the horizon are executed.
func (e *Engine) Run(horizon Time) Time {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		n := e.queue[0]
		// The horizon test comes first: no node sits under a key later
		// than its true key, so a root key beyond the horizon ends the
		// run whatever state the root is in — and a sliced run does not
		// re-key every far-future timer once per slice.
		if n.at > horizon {
			e.now = horizon
			return e.now
		}
		fn := n.fn
		if n.perm {
			if !n.armed {
				e.popRoot()
				continue
			}
			if n.dueAt != n.at || n.dueSeq != n.seq {
				n.at, n.seq = n.dueAt, n.dueSeq
				e.down(n, 0)
				continue
			}
			// Fire in place: nothing fn schedules can order before the
			// key it fires under, so the node keeps the root for the
			// next iteration to drop or re-key — a timer re-armed from
			// its own callback never leaves the heap.
			n.armed = false
		} else {
			e.popRoot()
			n.fn = nil // the pool must not extend closure lifetimes
			e.free = append(e.free, n)
		}
		if e.auditFn != nil && n.at < e.now {
			e.auditFn("sim/clock-monotone", fmt.Sprintf("popped event at %v behind clock %v", n.at, e.now))
		}
		e.now = n.at
		e.live--
		e.processed++
		fn()
		if e.interruptEvery > 0 && e.processed%e.interruptEvery == 0 {
			e.interruptFn()
		}
	}
	if !e.stopped && e.now < horizon && horizon != MaxTime {
		// Queue drained before the horizon: advance the clock so
		// measurement windows that end at the horizon stay well defined.
		e.now = horizon
	}
	return e.now
}

// less orders the heap by timestamp, sequence-number tie-broken so
// equal timestamps run FIFO.
func less(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(n *node) {
	e.queue = append(e.queue, n)
	e.up(n, len(e.queue)-1)
}

// popRoot removes the root entry (callers read e.queue[0] first) and
// marks it absent.
func (e *Engine) popRoot() {
	e.queue[0].idx = -1
	last := len(e.queue) - 1
	n := e.queue[last]
	e.queue[last] = nil
	e.queue = e.queue[:last]
	if last > 0 {
		e.down(n, 0)
	}
}

// up places n, whose slot i is free, at or above i.
func (e *Engine) up(n *node, i int) {
	q := e.queue
	for i > 0 {
		parent := (i - 1) / 2
		if !less(n, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].idx = i
		i = parent
	}
	q[i] = n
	n.idx = i
}

// down places n, whose slot i is free, at or below i.
func (e *Engine) down(n *node, i int) {
	q := e.queue
	for {
		min := 2*i + 1
		if min >= len(q) {
			break
		}
		if right := min + 1; right < len(q) && less(q[right], q[min]) {
			min = right
		}
		if !less(q[min], n) {
			break
		}
		q[i] = q[min]
		q[i].idx = i
		i = min
	}
	q[i] = n
	n.idx = i
}

// Timer is the rearm-friendly schedulable for the common TCP pattern
// "reset the retransmission timer on every ACK". It owns one permanent
// heap node: Reset stamps a new deadline exactly as After would and
// usually touches nothing else, Stop clears a flag, and neither
// allocates.
type Timer struct {
	eng *Engine
	n   node
}

// NewTimer creates a stopped timer that will invoke fn when it expires.
func NewTimer(eng *Engine, fn func()) *Timer {
	t := &Timer{eng: eng}
	t.n.initPerm(fn)
	return t
}

// Reset (re)arms the timer to fire after d, superseding any pending
// expiry. Like After, a non-positive d means the current instant.
func (t *Timer) Reset(d Time) {
	e := t.eng
	at := e.now + max(d, 0)
	if t.n.armed {
		e.live-- // the superseded expiry
	}
	e.arm(&t.n, at, e.stamp(at))
}

// Stop cancels the pending expiry, if any.
func (t *Timer) Stop() {
	if t.n.armed {
		t.n.armed = false
		t.eng.live--
	}
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.n.armed }

// Deadline returns the expiry time of an armed timer and true, or zero
// and false for a stopped timer.
func (t *Timer) Deadline() (Time, bool) {
	if !t.n.armed {
		return 0, false
	}
	return t.n.dueAt, true
}
