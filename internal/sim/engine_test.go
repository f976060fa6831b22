package sim

import (
	"testing"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if got := Duration(1500 * time.Millisecond); got != 1500*Millisecond {
		t.Fatalf("Duration = %v, want %v", got, 1500*Millisecond)
	}
	if got := (2 * Second).Std(); got != 2*time.Second {
		t.Fatalf("Std = %v, want 2s", got)
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Fatalf("Seconds = %v, want 0.25", got)
	}
	if got := (3 * Minute).String(); got != "3m0s" {
		t.Fatalf("String = %q, want 3m0s", got)
	}
}

func TestScheduleOrdering(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.Schedule(30, func() { order = append(order, 3) })
	eng.Schedule(10, func() { order = append(order, 1) })
	eng.Schedule(20, func() { order = append(order, 2) })
	eng.Run(100)
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEqualTimestampsRunFIFO(t *testing.T) {
	eng := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(5, func() { order = append(order, i) })
	}
	eng.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-timestamp events ran out of order: %v", order)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	eng := NewEngine()
	var seen Time
	eng.Schedule(42, func() { seen = eng.Now() })
	eng.Run(100)
	if seen != 42 {
		t.Fatalf("Now inside event = %v, want 42", seen)
	}
}

func TestHorizonStopsExecution(t *testing.T) {
	eng := NewEngine()
	ran := 0
	eng.Schedule(10, func() { ran++ })
	eng.Schedule(50, func() { ran++ })
	end := eng.Run(20)
	if ran != 1 {
		t.Fatalf("ran %d events, want 1", ran)
	}
	if end != 20 || eng.Now() != 20 {
		t.Fatalf("end = %v now = %v, want 20", end, eng.Now())
	}
	// Continuing the run executes the remaining event.
	eng.Run(100)
	if ran != 2 {
		t.Fatalf("after second Run, ran = %d, want 2", ran)
	}
}

func TestEventAtHorizonRuns(t *testing.T) {
	eng := NewEngine()
	ran := false
	eng.Schedule(20, func() { ran = true })
	eng.Run(20)
	if !ran {
		t.Fatal("event scheduled exactly at horizon did not run")
	}
}

func TestQueueDrainAdvancesToHorizon(t *testing.T) {
	eng := NewEngine()
	eng.Schedule(5, func() {})
	end := eng.Run(1000)
	if end != 1000 {
		t.Fatalf("Run returned %v, want horizon 1000", end)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	eng := NewEngine()
	eng.Schedule(50, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		eng.Schedule(10, func() {})
	})
	eng.Run(100)
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	eng := NewEngine()
	eng.Schedule(10, func() {
		eng.After(-5, func() {
			if eng.Now() != 10 {
				t.Errorf("negative-delay event ran at %v, want 10", eng.Now())
			}
		})
	})
	eng.Run(100)
}

func TestCancel(t *testing.T) {
	eng := NewEngine()
	ran := false
	tm := NewTimer(eng, func() { ran = true })
	tm.Reset(10)
	if !tm.Pending() {
		t.Fatal("freshly armed timer not pending")
	}
	tm.Stop()
	if tm.Pending() {
		t.Fatal("stopped timer still pending")
	}
	eng.Run(100)
	if ran {
		t.Fatal("stopped timer fired")
	}
	tm.Stop() // double-stop must be a no-op
	if eng.Len() != 0 {
		t.Fatalf("Len = %d after double stop, want 0", eng.Len())
	}
}

func TestStop(t *testing.T) {
	eng := NewEngine()
	ran := 0
	eng.Schedule(10, func() { ran++; eng.Stop() })
	eng.Schedule(20, func() { ran++ })
	eng.Run(100)
	if ran != 1 {
		t.Fatalf("ran = %d after Stop, want 1", ran)
	}
	// A subsequent Run resumes.
	eng.Run(100)
	if ran != 2 {
		t.Fatalf("ran = %d after resume, want 2", ran)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	eng := NewEngine()
	var fired []Time
	var chain func()
	chain = func() {
		fired = append(fired, eng.Now())
		if len(fired) < 5 {
			eng.After(10, chain)
		}
	}
	eng.Schedule(0, chain)
	eng.Run(1000)
	if len(fired) != 5 {
		t.Fatalf("chain fired %d times, want 5", len(fired))
	}
	for i, at := range fired {
		if at != Time(i*10) {
			t.Fatalf("chain[%d] at %v, want %v", i, at, Time(i*10))
		}
	}
}

func TestProcessedCount(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 7; i++ {
		eng.Schedule(Time(i), func() {})
	}
	tm := NewTimer(eng, func() {})
	tm.Reset(100)
	tm.Reset(200) // a superseded arm is not a firing
	tm.Stop()
	eng.Run(MaxTime)
	if eng.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7 (stopped and superseded arms don't count)", eng.Processed())
	}
}

func TestTimerResetAndStop(t *testing.T) {
	eng := NewEngine()
	fires := 0
	tm := NewTimer(eng, func() { fires++ })
	if tm.Pending() {
		t.Fatal("new timer pending")
	}
	tm.Reset(10)
	tm.Reset(50) // supersedes the first arm
	if d, ok := tm.Deadline(); !ok || d != 50 {
		t.Fatalf("Deadline = %v %v, want 50 true", d, ok)
	}
	eng.Run(30)
	if fires != 0 {
		t.Fatal("timer fired before rearmed deadline")
	}
	eng.Run(100)
	if fires != 1 {
		t.Fatalf("fires = %d, want 1", fires)
	}
	if tm.Pending() {
		t.Fatal("fired timer reports pending")
	}
	tm.Stop() // after the expiry: a no-op
	tm.Reset(10)
	tm.Stop()
	eng.Run(200)
	if fires != 1 {
		t.Fatalf("stopped timer fired; fires = %d", fires)
	}
	if _, ok := tm.Deadline(); ok {
		t.Fatal("stopped timer reports a deadline")
	}
}

func TestManyEventsHeapStress(t *testing.T) {
	eng := NewEngine()
	rng := NewRNG(1)
	const n = 10000
	var last Time = -1
	outOfOrder := false
	for i := 0; i < n; i++ {
		at := Time(rng.Int63n(1 << 30))
		eng.Schedule(at, func() {
			if eng.Now() < last {
				outOfOrder = true
			}
			last = eng.Now()
		})
	}
	eng.Run(MaxTime)
	if outOfOrder {
		t.Fatal("events executed out of timestamp order")
	}
	if eng.Processed() != n {
		t.Fatalf("Processed = %d, want %d", eng.Processed(), n)
	}
}

func TestTimerChurnStress(t *testing.T) {
	// TCP rearms its RTO on nearly every ACK: a timer that is Reset
	// thousands of times must fire exactly once, at the final deadline,
	// and leave nothing behind.
	eng := NewEngine()
	fires := 0
	var firedAt Time
	tm := NewTimer(eng, func() { fires++; firedAt = eng.Now() })
	for i := 0; i < 5000; i++ {
		at := Time(i)
		eng.Schedule(at, func() { tm.Reset(100) })
	}
	eng.Run(MaxTime)
	if fires != 1 {
		t.Fatalf("fires = %d, want 1", fires)
	}
	if firedAt != 4999+100 {
		t.Fatalf("fired at %v, want %v", firedAt, Time(5099))
	}
	if eng.Len() != 0 || eng.Cap() != 0 {
		t.Fatalf("engine retains Len %d Cap %d after drain", eng.Len(), eng.Cap())
	}
}

func TestRunResumesAfterHorizonRepeatedly(t *testing.T) {
	// Slicing one simulation into many Run(horizon) windows must be
	// equivalent to a single long run.
	mk := func() (*Engine, *[]Time) {
		eng := NewEngine()
		var fired []Time
		for i := 1; i <= 50; i++ {
			at := Time(i * 7)
			eng.Schedule(at, func() { fired = append(fired, eng.Now()) })
		}
		return eng, &fired
	}
	engA, firedA := mk()
	engA.Run(1000)
	engB, firedB := mk()
	for h := Time(10); h <= 1000; h += 10 {
		engB.Run(h)
	}
	if len(*firedA) != len(*firedB) {
		t.Fatalf("sliced run fired %d events, single run %d", len(*firedB), len(*firedA))
	}
	for i := range *firedA {
		if (*firedA)[i] != (*firedB)[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, (*firedA)[i], (*firedB)[i])
		}
	}
}

func TestSetInterruptCadence(t *testing.T) {
	eng := NewEngine()
	for i := 1; i <= 100; i++ {
		eng.Schedule(Time(i), func() {})
	}
	calls := 0
	eng.SetInterrupt(10, func() { calls++ })
	eng.Run(1000)
	if calls != 10 {
		t.Fatalf("interrupt fired %d times over 100 events at every=10, want 10", calls)
	}
}

func TestSetInterruptCanStopRun(t *testing.T) {
	eng := NewEngine()
	executed := 0
	var reschedule func()
	reschedule = func() {
		executed++
		eng.After(1, reschedule) // self-sustaining load: would run forever
	}
	eng.After(1, reschedule)
	eng.SetInterrupt(25, func() {
		if eng.Processed() >= 50 {
			eng.Stop()
		}
	})
	end := eng.Run(MaxTime)
	if executed != 50 {
		t.Fatalf("executed %d events, want the watchdog to stop at 50", executed)
	}
	if !eng.Stopped() {
		t.Fatal("Stopped() = false after watchdog stop")
	}
	if end != eng.Now() {
		t.Fatalf("Run returned %v, Now() = %v", end, eng.Now())
	}
}

func TestSetInterruptRemoval(t *testing.T) {
	eng := NewEngine()
	for i := 1; i <= 20; i++ {
		eng.Schedule(Time(i), func() {})
	}
	calls := 0
	eng.SetInterrupt(1, func() { calls++ })
	eng.SetInterrupt(0, nil)
	eng.Run(1000)
	if calls != 0 {
		t.Fatalf("removed interrupt still fired %d times", calls)
	}
}

// TestStaleKeyBeyondHorizonEndsRun pins the order of Run's two tests on
// a permanent node at the root: a key beyond the horizon ends the run
// before staleness is looked at (the key is never later than the true
// key), so slicing a run does not re-key and re-sift every far-future
// timer once per slice.
func TestStaleKeyBeyondHorizonEndsRun(t *testing.T) {
	eng := NewEngine()
	fires := 0
	tm := NewTimer(eng, func() { fires++ })
	tm.Reset(1000)
	tm.Reset(2000) // later: the node keeps the key it sits under
	if tm.n.at != 1000 || tm.n.dueAt != 2000 {
		t.Fatalf("after a later Reset the node sits at %v with true deadline %v, want 1000 and 2000", tm.n.at, tm.n.dueAt)
	}
	for h := Time(100); h <= 900; h += 100 {
		if end := eng.Run(h); end != h {
			t.Fatalf("Run(%v) returned %v", h, end)
		}
		if tm.n.at != 1000 {
			t.Fatalf("Run(%v) re-keyed a node whose key lies beyond the horizon (now at %v)", h, tm.n.at)
		}
	}
	eng.Run(1500) // the stale key is inside this slice: re-keyed, not fired
	if fires != 0 || tm.n.at != 2000 {
		t.Fatalf("after Run(1500): fires = %d, node at %v; want 0 and 2000", fires, tm.n.at)
	}
	eng.Run(2000)
	if fires != 1 || eng.Now() != 2000 {
		t.Fatalf("fires = %d at %v, want 1 at 2000", fires, eng.Now())
	}
}

// TestTimerResetEarlierMovesTheNode covers the one re-arm that must
// touch the heap: a deadline earlier than the key the node sits under.
func TestTimerResetEarlierMovesTheNode(t *testing.T) {
	eng := NewEngine()
	var order []string
	tm := NewTimer(eng, func() { order = append(order, "timer") })
	for i := 0; i < 20; i++ {
		eng.Schedule(Time(50+i), func() {})
	}
	eng.Schedule(30, func() { order = append(order, "event") })
	tm.Reset(500)
	tm.Reset(30) // same instant as the event, stamped after it
	eng.Run(40)
	if len(order) != 2 || order[0] != "event" || order[1] != "timer" {
		t.Fatalf("order = %v, want [event timer]", order)
	}
}

func TestLaneDeliversInScheduleOrder(t *testing.T) {
	eng := NewEngine()
	var got []int
	lane := NewLane(eng, func(v *int) { got = append(got, *v) })
	// Interleave lane entries with one-shot events at the same instants:
	// firing order is the order of the calls.
	for i := 0; i < 40; i += 2 {
		i := i
		lane.After(10, &i)
		eng.After(10, func() { got = append(got, i+1) })
		eng.Run(eng.Now() + 3)
	}
	eng.Run(MaxTime)
	if len(got) != 40 {
		t.Fatalf("delivered %d, want 40", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery order %v", got)
		}
	}
	if eng.Len() != 0 || eng.Cap() != 0 {
		t.Fatalf("engine retains Len %d Cap %d after drain", eng.Len(), eng.Cap())
	}
}

// TestLaneSinkKeepsItsSlotAcrossAfter: a sink is handed a pointer into
// the ring. With the ring one slot short of full when the sink runs, an
// After on the same lane from inside the sink is the call that would
// wrap onto that slot; it must grow the ring instead, and the sink must
// still read the value it was handed.
func TestLaneSinkKeepsItsSlotAcrossAfter(t *testing.T) {
	eng := NewEngine()
	var lane *Lane[[2]int]
	var got [][2]int
	lane = NewLane(eng, func(v *[2]int) {
		was := *v
		if was[1] == 0 {
			// Two entries re-fed from the first sink: the second is the
			// one a ring without a spare slot would write over *v.
			for k := 1; k <= 2; k++ {
				lane.After(10, &[2]int{was[0], k})
			}
		}
		if *v != was {
			t.Fatalf("sink was handed %v, reads %v after feeding its own lane", was, *v)
		}
		got = append(got, *v)
	})
	for i := 0; i < 7; i++ {
		lane.After(0, &[2]int{i, 0})
	}
	if len(lane.ring) != 8 || lane.size != 7 {
		t.Fatalf("ring %d slots holding %d before the run, want 8 holding 7", len(lane.ring), lane.size)
	}
	eng.Run(0) // fires the 7 entries due now; each feeds 2 more
	if len(lane.ring) <= 8 {
		t.Fatalf("ring still %d slots after its sinks fed it past capacity", len(lane.ring))
	}
	eng.Run(MaxTime)
	if len(got) != 21 {
		t.Fatalf("delivered %d entries, want 21", len(got))
	}
	for i, v := range got {
		want := [2]int{i, 0}
		if i >= 7 {
			want = [2]int{(i - 7) / 2, 1 + (i-7)%2}
		}
		if v != want {
			t.Fatalf("delivery %d is %v, want %v (all: %v)", i, v, want, got)
		}
	}
}

// TestLaneRejectsOvertaking: a lane is FIFO, so an entry due before its
// predecessor would fire late; After refuses it instead.
func TestLaneRejectsOvertaking(t *testing.T) {
	eng := NewEngine()
	lane := NewLane(eng, func(*int) {})
	v := 1
	lane.After(10, &v)
	lane.After(10, &v) // equal is in order: seq decides
	defer func() {
		if recover() == nil {
			t.Fatal("an entry due before its predecessor did not panic")
		}
		if eng.Len() != 2 {
			t.Fatalf("Len = %d after the rejected entry, want 2", eng.Len())
		}
	}()
	lane.After(9, &v)
}

// TestTimerAndLaneClampNegativeDelay: like After, a negative delay
// means the current instant, behind what is already scheduled for it.
func TestTimerAndLaneClampNegativeDelay(t *testing.T) {
	eng := NewEngine()
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	tm := NewTimer(eng, note("timer"))
	lane := NewLane(eng, func(s *string) { order = append(order, *s) })
	eng.Schedule(10, func() {
		eng.After(0, note("event"))
		tm.Reset(-5)
		s := "lane"
		lane.After(-5, &s)
	})
	eng.Run(10)
	if len(order) != 3 || order[0] != "event" || order[1] != "timer" || order[2] != "lane" {
		t.Fatalf("order = %v at %v, want [event timer lane] at 10", order, eng.Now())
	}
}
