package netem

import (
	"testing"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// TestQueueSteadyStateZeroAlloc is the allocation budget for the
// bottleneck ring buffer: the pre-sized power-of-two ring means
// enqueue/dequeue in steady state — even at full occupancy — never
// touches the allocator.
func TestQueueSteadyStateZeroAlloc(t *testing.T) {
	q := NewDropTailQueue(3 * units.MB)
	p := dataPkt(0, 0, 1448)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 64; i++ {
			if !push(q, p) {
				t.Fatal("push rejected below capacity")
			}
		}
		for i := 0; i < 64; i++ {
			if _, ok := pop(q); !ok {
				t.Fatal("pop from non-empty queue failed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("enqueue/dequeue allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestQueuePreSizedNeverGrows verifies the ring pre-sizing rule: a
// queue filled to its byte capacity with full-size frames fits in the
// initial ring, so grow is never called in the steady state the paper's
// experiments run in.
func TestQueuePreSizedNeverGrows(t *testing.T) {
	capacity := 375 * units.MB / 100 // CoreScale buffer at the scaled tier
	q := NewDropTailQueue(capacity)
	ringBefore := len(q.ring)
	if ringBefore&(ringBefore-1) != 0 {
		t.Fatalf("ring size %d is not a power of two", ringBefore)
	}
	n := 0
	for push(q, dataPkt(0, int64(n)*1448, 1448)) {
		n++
	}
	if len(q.ring) != ringBefore {
		t.Fatalf("ring grew from %d to %d filling to byte capacity", ringBefore, len(q.ring))
	}
	if n == 0 {
		t.Fatal("no packets accepted")
	}
}

// TestQueueGrowPreservesFIFOAndMask exercises the doubling path with
// sub-MSS packets (the only way to exceed the pre-size) across a
// wrapped head, checking FIFO order and mask consistency survive.
func TestQueueGrowPreservesFIFOAndMask(t *testing.T) {
	q := NewDropTailQueue(4 * units.MB) // byte capacity far beyond what tiny packets fill
	// Wrap the head first.
	for i := 0; i < 100; i++ {
		push(q, dataPkt(0, int64(i), 1))
		pop(q)
	}
	total := len(q.ring)*2 + 10 // force two grows
	for i := 0; i < total; i++ {
		if !push(q, dataPkt(0, int64(i), 1)) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if len(q.ring)&(len(q.ring)-1) != 0 {
		t.Fatalf("ring size %d not a power of two after grow", len(q.ring))
	}
	if q.mask != len(q.ring)-1 {
		t.Fatalf("mask %d inconsistent with ring size %d", q.mask, len(q.ring))
	}
	for i := 0; i < total; i++ {
		p, ok := pop(q)
		if !ok || p.Seq != int64(i) {
			t.Fatalf("pop %d = seq %d ok=%v, want seq %d", i, p.Seq, ok, i)
		}
	}
}

func BenchmarkQueuePushPop(b *testing.B) {
	q := NewDropTailQueue(3 * units.MB)
	p := dataPkt(0, 0, 1448)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(q, p)
		pop(q)
	}
}

func BenchmarkQueueFullCycle(b *testing.B) {
	q := NewDropTailQueue(3 * units.MB)
	p := dataPkt(0, 0, 1448)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for push(q, p) {
		}
		for {
			if _, ok := pop(q); !ok {
				break
			}
		}
	}
}

// BenchmarkPortSaturated measures the serialize/deliver path: a port
// kept saturated by re-offering every delivered packet.
func BenchmarkPortSaturated(b *testing.B) {
	eng := sim.NewEngine()
	var port *Port
	delivered := 0
	port = NewPort(eng, 10*units.GbitPerSec, NewDropTailQueue(3*units.MB), func(p packet.Packet) {
		delivered++
		port.Send(p)
	}, nil)
	for i := 0; i < 32; i++ {
		port.Send(dataPkt(0, int64(i)*1448, 1448))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delivered = 0
		for eng.Len() > 0 && delivered < 1000 {
			eng.Run(eng.Now() + sim.Millisecond)
		}
	}
	b.ReportMetric(float64(delivered), "pkts/iter")
}

// BenchmarkPipeSend measures the pooled propagation hop.
func BenchmarkPipeSend(b *testing.B) {
	eng := sim.NewEngine()
	sunk := 0
	pipe := NewPipe(eng, 5*sim.Microsecond, func(packet.Packet) { sunk++ })
	p := dataPkt(0, 0, 1448)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Send(p)
		if i%64 == 63 {
			eng.Run(eng.Now() + 10*sim.Microsecond)
		}
	}
	eng.Run(sim.MaxTime)
	if sunk != b.N {
		b.Fatalf("delivered %d of %d", sunk, b.N)
	}
}
