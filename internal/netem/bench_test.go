package netem

import (
	"testing"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// TestQueueSteadyStateZeroAlloc is the allocation budget for the
// bottleneck ring buffer: the pre-sized ring means enqueue/dequeue in
// steady state — even at full occupancy — never touches the allocator.
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

// TestQueuePreSizedNeverGrows verifies the ring pre-sizing rule: the
// ring is exactly RingSlotsFor(capacity) long, and a queue filled to its
// byte capacity with full-size frames, across the wrap seam, fits in it,
// so grow is never called in the steady state the paper's experiments
// run in.
func TestQueuePreSizedNeverGrows(t *testing.T) {
	capacity := 375 * units.MB / 100 // CoreScale buffer at the scaled tier
	q := NewDropTailQueue(capacity)
	slots := RingSlotsFor(capacity)
	if len(q.ring) != slots {
		t.Fatalf("ring holds %d slots, RingSlotsFor(%d) = %d", len(q.ring), capacity, slots)
	}
	// Move the head off slot zero, so the full queue wraps.
	for i := 0; i < slots/3; i++ {
		push(q, dataPkt(0, 0, 1448))
		pop(q)
	}
	n := 0
	for push(q, dataPkt(0, int64(n)*1448, 1448)) {
		n++
	}
	if len(q.ring) != slots {
		t.Fatalf("ring grew from %d to %d filling to byte capacity", slots, len(q.ring))
	}
	if n != slots-1 {
		t.Fatalf("%d full-size frames filled %d bytes, want %d", n, capacity, slots-1)
	}
	for i := 0; i < n; i++ {
		if p, ok := pop(q); !ok || p.Seq != int64(i)*1448 {
			t.Fatalf("pop %d = seq %d ok=%v, want seq %d", i, p.Seq, ok, int64(i)*1448)
		}
	}
}

// TestQueueGrowPreservesFIFOAcrossWrap exercises the doubling path with
// sub-MSS packets (the only way to exceed the pre-size) on a ring whose
// length is not a power of two, with the head past the seam: FIFO order
// survives two grows, and the ring doubles from RingSlotsFor each time.
func TestQueueGrowPreservesFIFOAcrossWrap(t *testing.T) {
	capacity := 1000 * (units.MSS + packet.HeaderBytes) // far beyond what tiny packets fill
	q := NewDropTailQueue(capacity)
	slots := RingSlotsFor(capacity)
	if slots&(slots-1) == 0 {
		t.Fatalf("RingSlotsFor(%d) = %d, want a length that is not a power of two", capacity, slots)
	}
	// Wrap the head first.
	for i := 0; i < slots-7; i++ {
		push(q, dataPkt(0, int64(i), 1))
		pop(q)
	}
	total := slots*2 + 10 // force two grows
	for i := 0; i < total; i++ {
		if !push(q, dataPkt(0, int64(i), 1)) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if len(q.ring) != 4*slots {
		t.Fatalf("ring holds %d slots after two grows from %d", len(q.ring), slots)
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
