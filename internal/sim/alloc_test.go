package sim

import (
	"testing"
)

// TestLenCountsOnlyLiveEvents is the regression test for the Engine.Len
// lie: Len is what will still fire, so the run supervisor's stall guard
// and capacity heuristics never read stopped timers — whose nodes stay
// in the heap until they surface — as pending work.
func TestLenCountsOnlyLiveEvents(t *testing.T) {
	eng := NewEngine()
	timers := make([]*Timer, 1000)
	for i := range timers {
		timers[i] = NewTimer(eng, func() {})
		timers[i].Reset(Time(i + 1))
	}
	if eng.Len() != 1000 {
		t.Fatalf("Len = %d after arming 1000, want 1000", eng.Len())
	}
	timers[0].Reset(5000) // re-arming replaces a firing, it does not add one
	if eng.Len() != 1000 {
		t.Fatalf("Len = %d after a re-arm, want 1000", eng.Len())
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if eng.Len() != 0 {
		t.Fatalf("Len = %d after stopping all 1000, want 0", eng.Len())
	}
	// Double-stop must not drive the live count negative.
	timers[0].Stop()
	if eng.Len() != 0 {
		t.Fatalf("Len = %d after double stop, want 0", eng.Len())
	}
	eng.Run(MaxTime)
	if eng.Processed() != 0 {
		t.Fatalf("Processed = %d, stopped timers ran", eng.Processed())
	}
}

// TestCapReportsRawHeapSize pins the Len/Cap split: Len is pending
// firings, Cap is the slots held, including stopped timers' nodes that
// have not surfaced yet.
func TestCapReportsRawHeapSize(t *testing.T) {
	eng := NewEngine()
	var tms []*Timer
	for i := 0; i < 30; i++ {
		tms = append(tms, NewTimer(eng, func() {}))
		tms[i].Reset(Time(i + 1))
	}
	for i := 0; i < 10; i++ {
		tms[i].Stop()
	}
	if got := eng.Len(); got != 20 {
		t.Fatalf("Len = %d, want 20", got)
	}
	if got := eng.Cap(); got != 30 {
		t.Fatalf("Cap = %d, want 30 (stopped nodes still in heap)", got)
	}
	eng.Run(10) // the stopped nodes surface and are dropped, nothing fires
	if eng.Processed() != 0 || eng.Cap() != 20 {
		t.Fatalf("after Run(10): Processed %d Cap %d, want 0 and 20", eng.Processed(), eng.Cap())
	}
}

// TestCapCountsLaneEntries: a lane's entries wait in its ring behind one
// node, which sits in the stream heap and not the main one, and Cap —
// what Budget.Events bounds — counts them.
func TestCapCountsLaneEntries(t *testing.T) {
	eng := NewEngine()
	lane := NewLane(eng, func(*int) {})
	for i := 0; i < 100; i++ {
		lane.After(10, &i)
	}
	if eng.Len() != 100 {
		t.Fatalf("Len = %d with 100 lane entries, want 100", eng.Len())
	}
	if len(eng.stream) != 1 || len(eng.queue) != 0 || eng.Cap() != 101 {
		t.Fatalf("stream heap holds %d nodes, main heap %d, Cap = %d; want 1, 0 and Cap 101 (node + 100 parked)",
			len(eng.stream), len(eng.queue), eng.Cap())
	}
	eng.Run(MaxTime)
	if eng.Processed() != 100 || eng.Len() != 0 || eng.Cap() != 0 {
		t.Fatalf("after drain: Processed %d Len %d Cap %d", eng.Processed(), eng.Len(), eng.Cap())
	}
}

// TestStreamHeapKeepsLanesOffMainHeap pins the bottleneck pattern of a
// link slower than its propagation delay: a port's serialization timer,
// re-armed every 6 µs from its own callback, feeds a 5 µs lane, which
// therefore empties after every packet and is re-armed by the next.
// Beside 1000 far-future per-flow timers, none of that may touch the
// main heap — its length never changes while the stream runs — and the
// steady state allocates nothing.
func TestStreamHeapKeepsLanesOffMainHeap(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 1000; i++ {
		NewTimer(eng, func() {}).Reset(Hour + Time(i))
	}
	const mainLen = 1000
	check := func(where string) {
		if len(eng.queue) != mainLen {
			t.Fatalf("main heap holds %d nodes %s, want %d", len(eng.queue), where, mainLen)
		}
	}
	delivered := 0
	lane := NewLane(eng, func(*[4]int64) {
		check("in the lane's sink")
		delivered++
	})
	var v [4]int64
	var tx *Timer
	tx = NewStreamTimer(eng, func() {
		check("in the stream timer's callback")
		lane.After(5*Microsecond, &v)
		tx.Reset(6 * Microsecond)
	})
	tx.Reset(6 * Microsecond)
	check("after arming the stream timer")
	eng.Run(6 * Millisecond)
	check("between slices")
	if delivered < 990 {
		t.Fatalf("lane delivered %d entries in 6 ms, want one per 6 µs", delivered)
	}
	if len(eng.stream) > 2 {
		t.Fatalf("stream heap holds %d nodes, want at most the timer's and the lane's", len(eng.stream))
	}
	allocs := testing.AllocsPerRun(100, func() {
		eng.Run(eng.Now() + 600*Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("stream timer + lane allocate %.1f objects per 100 packets, want 0", allocs)
	}
	check("after the steady state")
}

// TestHeapCompaction: stopped timers leave the heap as they surface,
// without dropping or reordering the live ones around them.
func TestHeapCompaction(t *testing.T) {
	eng := NewEngine()
	var fired []int
	var tms []*Timer
	for i := 0; i < 200; i++ {
		i := i
		tms = append(tms, NewTimer(eng, func() { fired = append(fired, i) }))
		tms[i].Reset(Time(1000 + i/2)) // pairs share a deadline
	}
	for i := 0; i < 200; i += 2 {
		tms[i].Stop()
	}
	if eng.Len() != 100 || eng.Cap() != 200 {
		t.Fatalf("Len %d Cap %d before the run, want 100 and 200", eng.Len(), eng.Cap())
	}
	eng.Run(1049)
	if eng.Len() != 50 || eng.Cap() != 100 {
		t.Fatalf("Len %d Cap %d half way, want 50 and 100", eng.Len(), eng.Cap())
	}
	eng.Run(MaxTime)
	if eng.Processed() != 100 || len(fired) != 100 {
		t.Fatalf("Processed = %d, want all 100 live timers to fire", eng.Processed())
	}
	for k, i := range fired {
		if i != 2*k+1 {
			t.Fatalf("firing %d was timer %d, want %d", k, i, 2*k+1)
		}
	}
	for _, tm := range tms {
		if tm.Pending() {
			t.Fatal("timer still pending after run")
		}
	}
}

// TestTimerChurnBoundsHeap pins the tentpole property: a timer rearmed
// far more often than it fires occupies one heap node, however often.
func TestTimerChurnBoundsHeap(t *testing.T) {
	eng := NewEngine()
	tm := NewTimer(eng, func() {})
	var rearm func()
	n := 0
	rearm = func() {
		tm.Reset(1 << 40)
		if n++; n < 100000 {
			eng.After(1, rearm)
		}
	}
	eng.After(0, rearm)
	eng.Run(Time(99999)) // run the rearm load, leave the final deadline pending
	if eng.Len() != 1 {
		t.Fatalf("Len = %d after churn, want 1 (the armed timer)", eng.Len())
	}
	if eng.Cap() != 1 {
		t.Fatalf("Cap = %d after 100k rearms, want the timer's one node", eng.Cap())
	}
}

// TestScheduleSteadyStateZeroAlloc is the allocation budget for the
// event hot path: once the pool is primed, Schedule + fire must not
// allocate. A future PR that reintroduces a per-event allocation fails
// here instead of silently regressing CoreScale runs.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	// Prime the pool.
	for i := 0; i < 64; i++ {
		eng.After(1, fn)
	}
	eng.Run(MaxTime)
	allocs := testing.AllocsPerRun(1000, func() {
		eng.After(1, fn)
		eng.Run(MaxTime)
	})
	if allocs != 0 {
		t.Fatalf("schedule+fire allocates %.1f objects per event, want 0", allocs)
	}
}

// TestTimerChurnZeroAlloc budgets the rearm path: Reset — later, the
// per-ACK RTO pattern, and earlier, which moves the node — Stop, and a
// timer re-armed from its own callback must all be allocation-free.
func TestTimerChurnZeroAlloc(t *testing.T) {
	eng := NewEngine()
	tm := NewTimer(eng, func() {})
	tm.Reset(1000)
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(2000)
		tm.Reset(1000)
	})
	if allocs != 0 {
		t.Fatalf("timer rearm allocates %.1f objects, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		tm.Stop()
		tm.Reset(1000)
	})
	if allocs != 0 {
		t.Fatalf("stop+rearm allocates %.1f objects, want 0", allocs)
	}
	tm.Stop()
	var pace *Timer
	pace = NewTimer(eng, func() { pace.Reset(10) })
	pace.Reset(10)
	allocs = testing.AllocsPerRun(1000, func() {
		eng.Run(eng.Now() + 100)
	})
	if allocs != 0 {
		t.Fatalf("self-rearming timer allocates %.1f objects per 10 firings, want 0", allocs)
	}
}

// TestLaneSteadyStateZeroAlloc: once its ring has grown to the standing
// population, a lane's After + fire cycle must not allocate.
func TestLaneSteadyStateZeroAlloc(t *testing.T) {
	eng := NewEngine()
	delivered := 0
	lane := NewLane(eng, func(*[4]int64) { delivered++ })
	var v [4]int64
	for i := 0; i < 64; i++ {
		lane.After(20, &v)
	}
	eng.Run(MaxTime)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 64; i++ {
			lane.After(20, &v)
		}
		eng.Run(MaxTime)
	})
	if allocs != 0 {
		t.Fatalf("lane After+fire allocates %.1f objects per 64 entries, want 0", allocs)
	}
	if delivered != 64*1002 {
		t.Fatalf("delivered %d, want %d", delivered, 64*1002)
	}
}

// TestPoolRecyclingPreservesOrder stresses interleaved schedule, fire,
// re-arm and stop across pooled events and permanent nodes, checking
// that execution order stays sorted by (time, FIFO) exactly as an
// unpooled, eager engine would run it.
func TestPoolRecyclingPreservesOrder(t *testing.T) {
	eng := NewEngine()
	rng := NewRNG(99)
	type rec struct {
		at  Time
		seq int
	}
	var fired []rec
	n := 0
	// Each timer fires under the (at, seq) of its latest Reset.
	armed := make([]rec, 32)
	tms := make([]*Timer, len(armed))
	for k := range tms {
		k := k
		tms[k] = NewTimer(eng, func() { fired = append(fired, armed[k]) })
	}
	stopped := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 100; i++ {
			at := eng.Now() + Time(rng.Int63n(1000))
			seq := n
			n++
			if k := int(rng.Int63n(3 * int64(len(tms)))); k < len(tms) {
				armed[k] = rec{at, seq}
				tms[k].Reset(at - eng.Now())
			} else {
				eng.Schedule(at, func() { fired = append(fired, rec{at, seq}) })
			}
		}
		for _, tm := range tms {
			if tm.Pending() && rng.Int63n(3) == 0 {
				tm.Stop()
				stopped++
			}
		}
		eng.Run(eng.Now() + 500)
	}
	eng.Run(MaxTime)
	if stopped == 0 || len(fired) == 0 || eng.Len() != 0 {
		t.Fatalf("stopped %d, fired %d, Len %d", stopped, len(fired), eng.Len())
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
			t.Fatalf("order violated at %d: (%v,%d) before (%v,%d)", i, a.at, a.seq, b.at, b.seq)
		}
	}
}
