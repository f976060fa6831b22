package netem

import (
	"testing"
	"testing/quick"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

func dataPkt(flow int32, seq int64, payload int32) packet.Packet {
	return packet.Packet{Flow: flow, Seq: seq, Len: payload}
}

// push and pop are the by-value view of a queue the tests read.
func push(q Queue, p packet.Packet) bool { return q.Push(&p) }

func pop(q Queue) (packet.Packet, bool) {
	var p packet.Packet
	ok := q.Pop(&p)
	return p, ok
}

func TestQueueFIFO(t *testing.T) {
	q := NewDropTailQueue(1 * units.MB)
	for i := 0; i < 100; i++ {
		if !push(q, dataPkt(0, int64(i), 1448)) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	for i := 0; i < 100; i++ {
		p, ok := pop(q)
		if !ok || p.Seq != int64(i) {
			t.Fatalf("pop %d = %v %v, want seq %d", i, p.Seq, ok, i)
		}
	}
	if _, ok := pop(q); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestQueueByteCapacityDropTail(t *testing.T) {
	// Capacity for two full-MSS frames (1518 wire bytes each) plus a
	// little headroom that only a small packet can use.
	q := NewDropTailQueue(2*1518 + 200)
	if !push(q, dataPkt(0, 0, 1448)) || !push(q, dataPkt(0, 1448, 1448)) {
		t.Fatal("pushes within capacity rejected")
	}
	if push(q, dataPkt(0, 2896, 1448)) {
		t.Fatal("push beyond capacity accepted")
	}
	if q.Dropped() != 1 || q.Enqueued() != 2 {
		t.Fatalf("dropped=%d enqueued=%d, want 1, 2", q.Dropped(), q.Enqueued())
	}
	// A smaller packet that fits must still be accepted (byte, not
	// packet, capacity).
	if !push(q, dataPkt(0, 2896, 100)) {
		t.Fatal("small packet that fits was dropped")
	}
}

func TestQueueBytesTracking(t *testing.T) {
	q := NewDropTailQueue(1 * units.MB)
	push(q, dataPkt(0, 0, 1448))
	push(q, dataPkt(0, 0, 100))
	wantBytes := units.ByteCount(1448+70) + units.ByteCount(100+70)
	if q.Bytes() != wantBytes {
		t.Fatalf("Bytes = %v, want %v", q.Bytes(), wantBytes)
	}
	pop(q)
	if q.Bytes() != 170 {
		t.Fatalf("Bytes after pop = %v, want 170", q.Bytes())
	}
	pop(q)
	if q.Bytes() != 0 || q.Len() != 0 {
		t.Fatalf("empty queue has Bytes=%v Len=%d", q.Bytes(), q.Len())
	}
}

func TestQueueRingGrowthPreservesOrder(t *testing.T) {
	q := NewDropTailQueue(100 * units.MB)
	// Interleave pushes and pops so head is offset when growth happens,
	// exercising the wraparound copy.
	seq := int64(0)
	next := int64(0)
	for round := 0; round < 5; round++ {
		for i := 0; i < 900; i++ {
			push(q, dataPkt(0, seq, 1448))
			seq++
		}
		for i := 0; i < 300; i++ {
			p, ok := pop(q)
			if !ok || p.Seq != next {
				t.Fatalf("out of order after growth: got %d want %d", p.Seq, next)
			}
			next++
		}
	}
	for {
		p, ok := pop(q)
		if !ok {
			break
		}
		if p.Seq != next {
			t.Fatalf("drain out of order: got %d want %d", p.Seq, next)
		}
		next++
	}
	if next != seq {
		t.Fatalf("drained %d packets, want %d", next, seq)
	}
}

func TestQueueHighWaterMarks(t *testing.T) {
	q := NewDropTailQueue(1 * units.MB)
	for i := 0; i < 10; i++ {
		push(q, dataPkt(0, 0, 1448))
	}
	for i := 0; i < 10; i++ {
		pop(q)
	}
	if q.MaxLen() != 10 {
		t.Fatalf("MaxLen = %d, want 10", q.MaxLen())
	}
	if q.MaxBytes() != 10*1518 {
		t.Fatalf("MaxBytes = %v, want %v", q.MaxBytes(), 10*1518)
	}
}

func TestQueuePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero capacity")
		}
	}()
	NewDropTailQueue(0)
}

func TestQueueingDelay(t *testing.T) {
	q := NewDropTailQueue(1 * units.MB)
	for i := 0; i < 100; i++ {
		push(q, dataPkt(0, 0, 1448))
	}
	// 100 × 1518B at 100 Mbps = 151800×8/1e8 s = 12.144 ms.
	got := q.QueueingDelay(100 * units.MbitPerSec)
	want := 12144 * sim.Microsecond
	if got != want {
		t.Fatalf("QueueingDelay = %v, want %v", got, want)
	}
}

// Property: occupancy counters are always consistent with the multiset
// of operations applied.
func TestQueueConservationProperty(t *testing.T) {
	f := func(ops []bool, sizes []uint16) bool {
		q := NewDropTailQueue(64 * units.KB)
		var model []units.ByteCount
		var modelBytes units.ByteCount
		si := 0
		for _, isPush := range ops {
			if isPush {
				if len(sizes) == 0 {
					continue
				}
				payload := int32(sizes[si%len(sizes)]%1448) + 1
				si++
				p := dataPkt(0, 0, payload)
				accepted := q.Push(&p)
				fits := modelBytes+p.WireBytes() <= 64*units.KB
				if accepted != fits {
					return false
				}
				if accepted {
					model = append(model, p.WireBytes())
					modelBytes += p.WireBytes()
				}
			} else {
				_, ok := pop(q)
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					modelBytes -= model[0]
					model = model[1:]
				}
			}
			if q.Bytes() != modelBytes || q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
