package sim

import "fmt"

// Lane carries a stream of deliveries that is already in firing order —
// every packet crossing one link's propagation delay, every ACK
// returning over one reverse delay — without a heap entry apiece. Each
// After stamps its (at, seq) at the call exactly as Engine.After would
// and appends (at, seq, v) to a ring; the lane's one permanent node
// carries the head's key, so entries fire at the same (at, seq) they
// would have as one-shot events while the heaps hold one node per lane.
//
// That node lives in the engine's stream heap, away from the per-flow
// timers (see the package doc): a lane whose ring empties leaves its
// heap and its next entry brings it back, which on a link that takes
// longer to serialize a packet than to carry it (a 1518-byte frame at
// 2 Gb/s is 6.07 µs on the wire, the dumbbell's forward delay 5 µs)
// happens every packet.
//
// What a lane may carry is anything whose entries cannot overtake each
// other: seq only grows, so a stream whose at never decreases — a
// constant delay is the plain case — is in key order by construction.
// A stream that can reorder (per-packet jitter) is the heap's job and
// stays on one-shot events.
//
// Values move by reference: After copies *v into the ring (AfterSlot
// lets the caller build it there), and the sink is handed a pointer to
// the ring slot itself, valid until the sink returns. The ring keeps a
// fired entry's value until the slot is reused, so a T holding pointers
// lives that much longer; the packets it was built for hold none.
type Lane[T any] struct {
	eng  *Engine
	sink func(*T)
	n    node
	ring []laneEntry[T] // len is zero or a power of two
	head int
	size int
}

type laneEntry[T any] struct {
	at  Time
	seq uint64
	v   T
}

// NewLane creates an empty lane that delivers into sink.
func NewLane[T any](eng *Engine, sink func(*T)) *Lane[T] {
	l := &Lane[T]{eng: eng, sink: sink}
	l.n.initPerm(l.fire, true)
	return l
}

// After delivers a copy of *v to the sink after delay d (non-positive:
// the current instant, behind what is already scheduled for it). An
// entry due before its predecessor does not belong in a lane and panics.
func (l *Lane[T]) After(d Time, v *T) { *l.AfterSlot(d) = *v }

// AfterSlot is After for a value built in place: it schedules one entry
// after delay d and returns the slot of its value, which still holds
// whatever the slot held last. The caller writes the whole value before
// it returns to the engine loop, which is the first that can deliver
// it; a value built elsewhere and copied in costs a second write of it.
func (l *Lane[T]) AfterSlot(d Time) *T {
	e := l.eng
	at := e.now + max(d, 0)
	if l.size > 0 {
		if tail := l.ring[(l.head+l.size-1)&(len(l.ring)-1)].at; at < tail {
			panic(fmt.Sprintf("sim: lane entry at %v would overtake its predecessor at %v", at, tail))
		}
	}
	seq := e.stamp(at)
	// One slot always stays free: the one just behind head, which is the
	// slot a running sink was handed. An After from inside that sink
	// therefore never writes over the value it is still reading.
	if l.size >= len(l.ring)-1 {
		l.grow()
	}
	slot := &l.ring[(l.head+l.size)&(len(l.ring)-1)]
	slot.at, slot.seq = at, seq
	l.size++
	e.parked++
	if l.size == 1 {
		e.arm(&l.n, at, seq)
	}
	return &slot.v
}

// grow doubles the ring (from 8), unrolling it to start at slot zero;
// the spare slot lands just past the entries, where the next one goes.
// A sink running while its lane grows keeps reading the old ring, which
// its pointer keeps alive.
func (l *Lane[T]) grow() {
	ring := make([]laneEntry[T], max(2*len(l.ring), 8))
	n := copy(ring, l.ring[l.head:])
	copy(ring[n:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}

// fire is the node's callback: it delivers the head entry, whose key
// the node fired under, leaving the node armed with the next entry's.
func (l *Lane[T]) fire() {
	head := l.head
	l.head = (head + 1) & (len(l.ring) - 1)
	l.size--
	l.eng.parked--
	if l.size > 0 {
		next := &l.ring[l.head]
		l.n.armed, l.n.dueAt, l.n.dueSeq = true, next.at, next.seq
	}
	l.sink(&l.ring[head].v)
}
