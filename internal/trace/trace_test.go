package trace

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ccatscale/internal/metrics"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
)

// timesSeconds reads the retained drop timestamps, in seconds and in
// order, out of the log's chunks.
func timesSeconds(l *QueueLog) []float64 {
	var out []float64
	for _, c := range l.chunks {
		for _, t := range c {
			out = append(out, t.Seconds())
		}
	}
	return out
}

// ramp returns how many chunks are smaller than dropChunk and how many
// timestamps they hold together: where the first full-size chunk starts.
func ramp() (chunks, n int) {
	for size := firstDropChunk; size < dropChunk; size *= 2 {
		chunks++
		n += size
	}
	return chunks, n
}

func TestQueueLogCounts(t *testing.T) {
	l := NewQueueLog(0)
	l.OnDrop(sim.Second, packet.Packet{Flow: 0})
	l.OnDrop(2*sim.Second, packet.Packet{Flow: 0})
	l.OnDrop(3*sim.Second, packet.Packet{Flow: 1})
	l.OnDrop(3*sim.Second, packet.Packet{Flow: 1000})
	if l.Total() != 4 || l.Flow(0) != 2 || l.Flow(1) != 1 || l.Flow(1000) != 1 ||
		l.Flow(9) != 0 || l.Flow(1001) != 0 || l.Flow(-1) != 0 {
		t.Fatalf("counts wrong: total=%d", l.Total())
	}
	ts := timesSeconds(l)
	if len(ts) != 4 || ts[0] != 1 || ts[3] != 3 {
		t.Fatalf("times = %v", ts)
	}
}

func TestQueueLogWindowStartExcludesWarmup(t *testing.T) {
	l := NewQueueLog(0)
	l.SetWindowStart(5 * sim.Second)
	l.OnDrop(sim.Second, packet.Packet{Flow: 0})
	l.OnDrop(6*sim.Second, packet.Packet{Flow: 0})
	if l.Total() != 2 {
		t.Fatalf("Total = %d (warm-up drops must still count)", l.Total())
	}
	if ts := timesSeconds(l); len(ts) != 1 || ts[0] != 6 {
		t.Fatalf("times = %v, warm-up timestamp not excluded", ts)
	}
}

func TestQueueLogTimestampCap(t *testing.T) {
	l := NewQueueLog(2)
	for i := 0; i < 5; i++ {
		l.OnDrop(sim.Time(i), packet.Packet{})
	}
	if l.Total() != 5 {
		t.Fatalf("Total = %d", l.Total())
	}
	if ts := timesSeconds(l); len(ts) != 2 {
		t.Fatalf("timestamp cap not applied: %v", ts)
	}
}

// TestDropLogBurstinessMatchesMetrics holds the in-place walk to the
// formula it replaces: over random non-decreasing drop times with ties,
// across chunk boundaries, capped and windowed, BurstinessOfGaps over
// EachGap is bit-equal to metrics.Burstiness over the retained times in
// seconds.
func TestDropLogBurstinessMatchesMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	_, r := ramp()
	for _, n := range []int{0, 1, 2, 3, firstDropChunk - 1, firstDropChunk, firstDropChunk + 1,
		r - 1, r, r + 1, dropChunk, 3*dropChunk + 7} {
		drops := make([]sim.Time, n)
		var at sim.Time
		for i := range drops {
			if rng.Intn(4) > 0 { // one gap in four is a tie
				at += sim.Time(rng.ExpFloat64() * float64(sim.Millisecond))
			}
			drops[i] = at
		}
		var mid sim.Time
		if n > 0 {
			mid = drops[n/3]
		}
		for _, v := range []struct {
			name        string
			cap         int
			windowStart sim.Time
		}{
			{"all", 0, 0},
			{"capped", n/2 + 1, 0},
			{"windowed", 0, mid},
		} {
			l := NewQueueLog(v.cap)
			l.SetWindowStart(v.windowStart)
			var want []float64
			for i, at := range drops {
				l.OnDrop(at, packet.Packet{Flow: int32(i % 7)})
				if at >= v.windowStart && (v.cap == 0 || len(want) < v.cap) {
					want = append(want, at.Seconds())
				}
			}
			if got := timesSeconds(l); len(got) != len(want) || l.TimesLen() != len(want) {
				t.Fatalf("n=%d %s: retained %d (TimesLen %d), want %d", n, v.name, len(got), l.TimesLen(), len(want))
			}
			got := metrics.BurstinessOfGaps(l.EachGap)
			if ref := metrics.Burstiness(want); math.Float64bits(got) != math.Float64bits(ref) {
				t.Fatalf("n=%d %s: in-place burstiness %v, metrics.Burstiness %v", n, v.name, got, ref)
			}
		}
	}
}

// TestDropLogAllocs checks that the log grows by whole chunks, never by
// copying: every chunk but the last is full, the chunks double from
// firstDropChunk to dropChunk and stay there, and the bytes allocated
// are the chunks' and next to nothing else. Reading burstiness off the
// log costs nothing that grows with the drop count.
//
// The recording is measured three times and the least is checked.
// TotalAlloc is process-wide, and once in a while the runtime starts an
// OS thread as ReadMemStats restarts the world, which allocates 5 248 B
// of its own (the m, its g0 and signal g, two profiling stacks) inside
// the window. That happens in one repeat at most; a log that allocates
// too much does it in every repeat.
func TestDropLogAllocs(t *testing.T) {
	const k = 3
	rampChunks, r := ramp()
	n := r + k*dropChunk
	var l *QueueLog
	got := uint64(math.MaxUint64)
	for rep := 0; rep < 3; rep++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		l = NewQueueLog(0)
		for i := 0; i < n; i++ {
			l.OnDrop(sim.Time(i), packet.Packet{Flow: int32(i % 4)})
		}
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	size := firstDropChunk
	for i, c := range l.chunks {
		if len(c) != size || cap(c) != size {
			t.Fatalf("chunk %d of %d drops: len %d cap %d, want both %d", i, n, len(c), cap(c), size)
		}
		size = min(2*size, dropChunk)
	}
	if len(l.chunks) != rampChunks+k {
		t.Fatalf("%d drops made %d chunks, want %d", n, len(l.chunks), rampChunks+k)
	}
	// The chunks, plus the log, its chunk list and its per-flow counters.
	if chunkBytes := uint64(n) * 8; got < chunkBytes || got > chunkBytes+2048 {
		t.Fatalf("recording %d drops allocated %d B, want %d B of chunks and at most 2 KiB else", n, got, chunkBytes)
	}
	l.OnDrop(sim.Time(n), packet.Packet{})
	if c := l.chunks[len(l.chunks)-1]; len(c) != 1 || cap(c) != dropChunk {
		t.Fatalf("one drop past full chunks: last chunk len %d cap %d", len(c), cap(c))
	}

	small := NewQueueLog(0)
	for i := 0; i < 3; i++ {
		small.OnDrop(sim.Time(i), packet.Packet{})
	}
	bigAllocs := testing.AllocsPerRun(10, func() { metrics.BurstinessOfGaps(l.EachGap) })
	smallAllocs := testing.AllocsPerRun(10, func() { metrics.BurstinessOfGaps(small.EachGap) })
	if bigAllocs != smallAllocs || bigAllocs > 5 {
		t.Fatalf("burstiness over %d drops made %v allocations, over 3 drops %v", l.TimesLen(), bigAllocs, smallAllocs)
	}
}

// TestQueueLogRejectsOutOfOrder: the log is sorted because the engine
// clock never runs backwards, and a retained drop that would unsort it
// panics, also across a chunk boundary. Ties, and drops whose
// timestamps are not retained, are accepted.
func TestQueueLogRejectsOutOfOrder(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if msg, _ := r.(string); !strings.Contains(msg, "logged after") {
				t.Fatalf("%s: panic %v", name, r)
			}
		}()
		f()
	}
	mustPanic("within a chunk", func() {
		l := NewQueueLog(0)
		l.OnDrop(2*sim.Second, packet.Packet{})
		l.OnDrop(2*sim.Second, packet.Packet{}) // a tie is in order
		l.OnDrop(sim.Second, packet.Packet{})
	})
	mustPanic("across chunks", func() {
		l := NewQueueLog(0)
		for i := 0; i < firstDropChunk; i++ {
			l.OnDrop(sim.Time(i+10), packet.Packet{})
		}
		l.OnDrop(9, packet.Packet{})
	})

	l := NewQueueLog(2)
	l.SetWindowStart(5 * sim.Second)
	l.OnDrop(6*sim.Second, packet.Packet{})
	l.OnDrop(sim.Second, packet.Packet{}) // warm-up: counted, not retained
	l.OnDrop(7*sim.Second, packet.Packet{})
	l.OnDrop(6*sim.Second, packet.Packet{}) // past the cap: not retained
	if l.Total() != 4 || l.TimesLen() != 2 || l.Overflow() != 1 {
		t.Fatalf("total %d, retained %d, overflow %d", l.Total(), l.TimesLen(), l.Overflow())
	}
}
