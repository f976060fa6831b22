package netem

import (
	"ccatscale/internal/audit"
	"ccatscale/internal/packet"
	"ccatscale/internal/units"
)

// AuditedQueue wraps a Queue with shadow byte/packet accounting: it
// independently tracks what the occupancy *must* be from the admitted
// and removed packets it observes, and reports any divergence from the
// wrapped queue's own counters. This is the continuous half of the
// conservation ledger — "drop-tail queue occupancy must match the sum
// of enqueued segment sizes at all times" — and it is what catches a
// corrupted increment or decrement at the operation that corrupts it,
// not at the end of the run.
type AuditedQueue struct {
	inner Queue
	aud   *audit.Auditor

	bytes units.ByteCount
	n     int

	// inPush/inPop disambiguate the wrapped queue's drop callbacks:
	// drops reported during Push are tail rejections of packets never
	// admitted (no shadow adjustment), drops reported during Pop are
	// AQM head drops of admitted packets (shadow must shrink). Drops
	// reported by the Port after a rejected Push arrive outside both.
	inPush bool
	inPop  bool
}

// NewAuditedQueue wraps inner. aud must be non-nil; an off auditor
// should skip the wrapper entirely.
func NewAuditedQueue(inner Queue, aud *audit.Auditor) *AuditedQueue {
	if aud == nil {
		panic("netem: audited queue without auditor")
	}
	return &AuditedQueue{inner: inner, aud: aud}
}

// Inner returns the wrapped queue (for statistics and drills).
func (q *AuditedQueue) Inner() Queue { return q.inner }

// Push implements Queue.
func (q *AuditedQueue) Push(p *packet.Packet) bool {
	q.inPush = true
	ok := q.inner.Push(p)
	q.inPush = false
	if ok {
		q.bytes += p.WireBytes()
		q.n++
	}
	q.check("push")
	return ok
}

// Pop implements Queue.
func (q *AuditedQueue) Pop(dst *packet.Packet) bool {
	q.inPop = true
	ok := q.inner.Pop(dst)
	q.inPop = false
	if ok {
		q.bytes -= dst.WireBytes()
		q.n--
	}
	q.check("pop")
	return ok
}

// NoteDrop must be called from the wrapped queue's drop callback. Only
// dequeue-side drops (CoDel's head drops of already-admitted packets)
// adjust the shadow accounting.
func (q *AuditedQueue) NoteDrop(p packet.Packet) {
	if q.inPop {
		q.bytes -= p.WireBytes()
		q.n--
	}
}

// Bytes implements Queue.
func (q *AuditedQueue) Bytes() units.ByteCount { return q.inner.Bytes() }

// Len implements Queue.
func (q *AuditedQueue) Len() int { return q.inner.Len() }

// Capacity implements Queue.
func (q *AuditedQueue) Capacity() units.ByteCount { return q.inner.Capacity() }

// check compares the wrapped queue's counters against the shadow and
// the configured capacity after every operation.
func (q *AuditedQueue) check(op string) {
	gotBytes, gotLen := q.inner.Bytes(), q.inner.Len()
	if gotBytes != q.bytes || gotLen != q.n {
		q.aud.Reportf("netem/queue-occupancy", -1,
			"after %s: queue reports %d bytes / %d packets, ledger has %d bytes / %d packets",
			op, gotBytes, gotLen, q.bytes, q.n)
	}
	if gotBytes < 0 {
		q.aud.Reportf("netem/queue-negative", -1, "after %s: occupancy %d bytes", op, gotBytes)
	}
	if cap := q.inner.Capacity(); gotBytes > cap {
		q.aud.Reportf("netem/queue-overflow", -1,
			"after %s: occupancy %d bytes exceeds capacity %d", op, gotBytes, cap)
	}
}
