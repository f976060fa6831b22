package sim

import (
	"fmt"
	"testing"
)

// refEngine is the reference the engine is checked against: every
// pending firing is an (at, seq, id) in one slice, and the next to fire
// is found by scanning it. Appends keep the slice in seq order, so the
// first entry with the smallest at is the (at, seq) minimum.
type refEngine struct {
	now       Time
	seq       uint64
	pending   []refEntry
	processed uint64
	stopped   bool
	fire      func(id int)
}

type refEntry struct {
	at  Time
	seq uint64
	id  int
}

func (r *refEngine) schedule(at Time, id int) {
	r.pending = append(r.pending, refEntry{at, r.seq, id})
	r.seq++
}

func (r *refEngine) cancel(id int) {
	for i, p := range r.pending {
		if p.id == id {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return
		}
	}
}

func (r *refEngine) run(horizon Time) {
	r.stopped = false
	for len(r.pending) > 0 && !r.stopped {
		min := 0
		for i, p := range r.pending {
			if p.at < r.pending[min].at {
				min = i
			}
		}
		p := r.pending[min]
		if p.at > horizon {
			r.now = horizon
			return
		}
		r.pending = append(r.pending[:min], r.pending[min+1:]...)
		r.now = p.at
		r.processed++
		r.fire(p.id)
	}
	if !r.stopped && r.now < horizon && horizon != MaxTime {
		r.now = horizon
	}
}

// Program vocabulary. Timers fire as ids [0, oracleTimers), the first
// oracleMainTimers of them from the main heap and the rest stream timers
// from the stream heap, constant-delay streams (lanes, also in the
// stream heap) as oracleStreamID+s, one-shot events as oraclePlainID.
// Delays sit on a grid of a few ticks so that equal-timestamp ties —
// where only seq decides, within a heap and across the two — are the
// common case.
const (
	oracleMainTimers = 4
	oracleTimers     = oracleMainTimers + 2
	oracleStreamID   = 10
	oraclePlainID    = 100
)

var oracleStreamDelay = [...]Time{0, 1, 3}

// machine is what a program drives: the reference or the engine.
type machine interface {
	after(d Time, id int)
	scheduleAt(at Time, id int)
	reset(k int, d Time)
	stopTimer(k int)
	timerPending(k int) bool
	stream(s int)
	run(horizon Time)
	halt()
	state() (now Time, processed uint64, live int)
}

type refMachine struct{ refEngine }

func (m *refMachine) after(d Time, id int)       { m.schedule(m.now+d, id) }
func (m *refMachine) scheduleAt(at Time, id int) { m.schedule(at, id) }
func (m *refMachine) reset(k int, d Time)        { m.cancel(k); m.schedule(m.now+d, k) }
func (m *refMachine) stopTimer(k int)            { m.cancel(k) }
func (m *refMachine) stream(s int)               { m.schedule(m.now+oracleStreamDelay[s], oracleStreamID+s) }
func (m *refMachine) halt()                      { m.stopped = true }
func (m *refMachine) timerPending(k int) bool {
	for _, p := range m.pending {
		if p.id == k {
			return true
		}
	}
	return false
}
func (m *refMachine) state() (Time, uint64, int) { return m.now, m.processed, len(m.pending) }

type engMachine struct {
	eng    *Engine
	timers [oracleTimers]*Timer
	lanes  [len(oracleStreamDelay)]*Lane[streamEntry]
	fed    int // streamEntry serials handed out
	fire   func(id int)
}

// streamEntry is what a lane carries: the id to fire and a serial unique
// to the entry, so a slot overwritten while its sink still reads it shows.
type streamEntry struct{ id, serial int }

func newEngMachine(fire func(id int)) *engMachine {
	m := &engMachine{eng: NewEngine(), fire: fire}
	for k := range m.timers {
		k := k
		if k < oracleMainTimers {
			m.timers[k] = NewTimer(m.eng, func() { fire(k) })
		} else {
			m.timers[k] = NewStreamTimer(m.eng, func() { fire(k) })
		}
	}
	for s := range m.lanes {
		// The sink reads through the pointer it was handed after the
		// firing, which may have fed this same lane.
		m.lanes[s] = NewLane(m.eng, func(e *streamEntry) {
			was := *e
			fire(e.id)
			if *e != was {
				panic(fmt.Sprintf("lane %d: entry %+v changed to %+v while its sink ran", s, was, *e))
			}
		})
	}
	return m
}

func (m *engMachine) after(d Time, id int)       { m.eng.After(d, func() { m.fire(id) }) }
func (m *engMachine) scheduleAt(at Time, id int) { m.eng.Schedule(at, func() { m.fire(id) }) }
func (m *engMachine) reset(k int, d Time)        { m.timers[k].Reset(d) }
func (m *engMachine) stopTimer(k int)            { m.timers[k].Stop() }
func (m *engMachine) timerPending(k int) bool    { return m.timers[k].Pending() }
func (m *engMachine) run(horizon Time)           { m.eng.Run(horizon) }
func (m *engMachine) halt()                      { m.eng.Stop() }
func (m *engMachine) stream(s int) {
	m.fed++
	m.lanes[s].After(oracleStreamDelay[s], &streamEntry{oracleStreamID + s, m.fed})
}
func (m *engMachine) state() (Time, uint64, int) {
	return m.eng.Now(), m.eng.Processed(), m.eng.Len()
}

// interp executes one program against one machine. Top-level steps and
// the callbacks they cause draw their operands from the same cursor, so
// two machines that fire in the same order execute the same calls.
type interp struct {
	m    machine
	prog []byte
	pc   int
	log  []firing
}

type firing struct {
	id  int
	now Time
}

func (in *interp) next() int {
	if in.pc >= len(in.prog) {
		return -1
	}
	b := in.prog[in.pc]
	in.pc++
	return int(b)
}

// arg draws an operand in [0, n); an exhausted program reads as zero.
func (in *interp) arg(n int) int { return max(in.next(), 0) % n }

// step runs one top-level operation; false once the program is spent.
func (in *interp) step() bool {
	op := in.next()
	if op < 0 {
		return false
	}
	now, _, _ := in.m.state()
	switch op % 10 {
	case 0:
		in.m.after(Time(in.arg(4)), oraclePlainID)
	case 1:
		in.m.scheduleAt(now+Time(in.arg(4)), oraclePlainID+1)
	case 2:
		in.m.reset(in.arg(oracleMainTimers), Time(in.arg(6)))
	case 3:
		in.m.stopTimer(in.arg(oracleMainTimers))
	case 4:
		in.m.stream(in.arg(len(oracleStreamDelay)))
	case 5, 6:
		in.m.run(now + Time(in.arg(5)))
	case 7: // stop, then re-arm the same timer
		k := in.arg(oracleTimers)
		in.m.stopTimer(k)
		in.m.reset(k, Time(in.arg(6)))
	case 8:
		in.m.reset(in.streamTimer(), Time(in.arg(6)))
	case 9:
		in.m.stopTimer(in.streamTimer())
	}
	return true
}

// streamTimer draws one of the stream timers.
func (in *interp) streamTimer() int {
	return oracleMainTimers + in.arg(oracleTimers-oracleMainTimers)
}

// fired is every callback: it records the firing and then acts from
// inside it — on other timers and streams, and on whatever fired.
func (in *interp) fired(id int) {
	now, _, _ := in.m.state()
	in.log = append(in.log, firing{id, now})
	self, own := id < oracleTimers, id-oracleStreamID
	for n := in.arg(3); n > 0; n-- {
		switch op := in.arg(256); op % 8 {
		case 0:
			in.m.after(Time(in.arg(4)), oraclePlainID+2)
		case 1: // any timer, main or stream
			in.m.reset(in.arg(oracleTimers), Time(in.arg(6)))
		case 2:
			in.m.stopTimer(in.arg(oracleTimers))
		case 3:
			in.m.stream(in.arg(len(oracleStreamDelay)))
		case 4: // re-arm from the timer's own callback; feed a stream from its own sink
			if self {
				in.m.reset(id, Time(in.arg(6)))
			} else if own >= 0 && own < len(oracleStreamDelay) {
				in.m.stream(own)
			}
		case 5:
			if self {
				in.m.stopTimer(id)
			}
		case 6:
			if op >= 192 {
				in.m.halt()
			}
		case 7:
			in.m.reset(in.streamTimer(), Time(in.arg(6)))
		}
	}
}

// runOracle drives prog against the reference and the engine in lock
// step and reports the first step after which they differ: the fired
// (id, now) sequence, the clock, Processed, Len, each timer's Pending.
func runOracle(t *testing.T, prog []byte) {
	t.Helper()
	ref := &interp{prog: prog}
	rm := &refMachine{}
	rm.fire = ref.fired
	ref.m = rm
	got := &interp{prog: prog}
	got.m = newEngMachine(got.fired)

	checked := 0
	compare := func(step int) {
		t.Helper()
		for ; checked < len(ref.log) || checked < len(got.log); checked++ {
			if i := checked; i >= len(ref.log) || i >= len(got.log) || ref.log[i] != got.log[i] {
				t.Fatalf("step %d: firing %d differs: reference %v, engine %v", step, i, tail(ref.log, i), tail(got.log, i))
			}
		}
		rn, rp, rl := ref.m.state()
		gn, gp, gl := got.m.state()
		if rn != gn || rp != gp || rl != gl {
			t.Fatalf("step %d: reference now=%d processed=%d len=%d, engine now=%d processed=%d len=%d",
				step, rn, rp, rl, gn, gp, gl)
		}
		for k := 0; k < oracleTimers; k++ {
			if ref.m.timerPending(k) != got.m.timerPending(k) {
				t.Fatalf("step %d: timer %d pending: reference %v, engine %v", step, k, ref.m.timerPending(k), got.m.timerPending(k))
			}
		}
	}
	step := 0
	for ref.step() {
		got.step()
		step++
		compare(step)
	}
	ref.m.run(MaxTime)
	got.m.run(MaxTime)
	compare(step + 1)
}

func tail(log []firing, from int) []firing {
	if from >= len(log) {
		return nil
	}
	return log[from:min(from+4, len(log))]
}

func oracleProgram(seed uint64, n int) []byte {
	rng := NewRNG(seed)
	prog := make([]byte, n)
	for i := range prog {
		prog[i] = byte(rng.Int63n(256))
	}
	return prog
}

// TestEngineMatchesOracle runs random programs — Schedule/After,
// Timer.Reset later, earlier and equal, Stop, stop-then-reset, reset
// and stop from inside the timer's own callback, of main-heap and
// stream-heap timers alike, constant-delay streams fed from outside and
// from their own sink, Engine.Stop mid-run, Run in horizon slices —
// against the reference engine.
func TestEngineMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		runOracle(t, oracleProgram(seed, 1500))
	}
}

func FuzzEngineOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 5, 7, 0, 3, 2, 0, 1, 5, 4})                     // reset later, stop-then-reset earlier, run past both
	f.Add([]byte{4, 0, 4, 0, 5, 1, 2, 4, 4, 1, 4, 5, 4})               // a delay-0 stream fed from its own sink
	f.Add([]byte{2, 1, 0, 5, 3, 1, 4, 3, 1, 5, 2, 1, 246, 5, 4, 5, 4}) // re-arm, stop and halt from inside callbacks
	f.Add([]byte{2, 0, 3, 8, 0, 3, 4, 2, 0, 3, 5, 4})                  // a main timer, a stream timer, a lane and an event due at 3
	f.Add([]byte{8, 1, 2, 2, 1, 2, 9, 1, 8, 1, 2, 2, 0, 2, 5, 4})      // stream timers stopped and re-armed across a main-heap tie
	f.Add(oracleProgram(1, 400))
	f.Add(oracleProgram(2, 400))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		runOracle(t, prog)
	})
}
