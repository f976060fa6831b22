package sim

import "testing"

// BenchmarkSchedule measures the pooled schedule+fire cycle — the
// engine's per-event cost with a primed free list.
func BenchmarkSchedule(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.After(1, fn)
	}
	eng.Run(MaxTime)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(1, fn)
		if i%64 == 63 {
			eng.Run(MaxTime)
		}
	}
	eng.Run(MaxTime)
}

// BenchmarkTimerChurn measures the rearm-heavy RTO pattern: each Reset
// moves the deadline later and leaves the node where it sits.
func BenchmarkTimerChurn(b *testing.B) {
	eng := NewEngine()
	tm := NewTimer(eng, func() {})
	tm.Reset(1 << 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(1 << 40)
	}
}

// BenchmarkScheduleCancel measures arm-then-stop churn, the
// pacing-timer pattern under bursty ACK arrival.
func BenchmarkScheduleCancel(b *testing.B) {
	eng := NewEngine()
	tm := NewTimer(eng, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(1000)
		tm.Stop()
	}
}

// BenchmarkLane measures a lane's After + fire cycle with a standing
// population of 64 entries — a link's packets in propagation.
func BenchmarkLane(b *testing.B) {
	eng := NewEngine()
	var lane *Lane[[20]int64]
	lane = NewLane(eng, func(v *[20]int64) { lane.After(64, v) })
	var v [20]int64
	for i := 0; i < 64; i++ {
		eng.Run(eng.Now() + 1)
		lane.After(64, &v)
	}
	before := eng.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	eng.SetInterrupt(1, func() {
		if eng.Processed()-before >= uint64(b.N) {
			eng.Stop()
		}
	})
	eng.Run(MaxTime)
}
