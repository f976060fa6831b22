// Package trace provides the instrumentation the paper's testbed got
// from BESS drop logging: a bottleneck drop log (per-flow counts plus
// timestamps for loss-rate and burstiness analysis) and a per-CCA
// goodput time series. What the paper read off the Linux tcpprobe
// module — CWND halvings — is counted at the sender instead
// (tcp.SenderStats: fast recoveries plus RTOs).
package trace

import (
	"fmt"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
)

// QueueLog records bottleneck tail drops, standing in for the paper's
// "logging packet drops at the bottleneck queue in the software
// switch".
//
// Retained timestamps live in chunks that are allocated only when the
// last one is full and never copied, so the log costs 8 bytes per
// timestamp it holds, plus the unfilled end of its last chunk. The
// first chunk holds firstDropChunk timestamps and each next one twice
// its predecessor, up to dropChunk (64 KiB), so a run that drops a
// handful of packets does not hold 64 KiB. Drops are logged at the
// engine clock, which never runs backwards, so the log is already
// sorted and EachGap reads the inter-drop gaps in place.
type QueueLog struct {
	startAt sim.Time

	chunks   [][]sim.Time
	n        int      // retained timestamps, across all chunks
	last     sim.Time // the newest retained timestamp
	perFlow  []uint64
	total    uint64
	capTimes int
	overflow uint64
}

// The sizes of a QueueLog's first chunk and of its largest, in
// timestamps.
const (
	firstDropChunk = 256
	dropChunk      = 8192
)

// NewQueueLog creates a log. maxTimestamps bounds the retained
// timestamp list (0 = unbounded); per-flow counters are always exact.
// Burstiness needs the raw inter-drop gaps, so CoreScale runs keep a
// large but bounded sample.
func NewQueueLog(maxTimestamps int) *QueueLog {
	return &QueueLog{capTimes: maxTimestamps}
}

// SetWindowStart discards the notion of drops before t for timestamp
// collection: drops recorded earlier than t are counted but their
// timestamps excluded from burstiness analysis (the paper ignores the
// warm-up period).
func (l *QueueLog) SetWindowStart(t sim.Time) { l.startAt = t }

// OnDrop is the netem.DropFunc to install at the bottleneck. Flow ids
// are non-negative. A retained timestamp earlier than its predecessor
// would unsort the log and panics.
func (l *QueueLog) OnDrop(now sim.Time, p packet.Packet) {
	l.total++
	if int(p.Flow) >= len(l.perFlow) {
		l.perFlow = append(l.perFlow, make([]uint64, int(p.Flow)+1-len(l.perFlow))...)
	}
	l.perFlow[p.Flow]++
	if now < l.startAt {
		return
	}
	if l.capTimes != 0 && l.n >= l.capTimes {
		l.overflow++
		return
	}
	if l.n > 0 && now < l.last {
		panic(fmt.Sprintf("trace: drop at %v logged after a drop at %v", now, l.last))
	}
	k := len(l.chunks)
	if k == 0 || len(l.chunks[k-1]) == cap(l.chunks[k-1]) {
		size := firstDropChunk
		if k > 0 {
			size = min(2*cap(l.chunks[k-1]), dropChunk)
		}
		l.chunks = append(l.chunks, make([]sim.Time, 0, size))
		k++
	}
	l.chunks[k-1] = append(l.chunks[k-1], now)
	l.n++
	l.last = now
}

// TimesLen returns the number of retained drop timestamps (the log's
// trace-point footprint; per-flow counters are O(flows) and not
// counted).
func (l *QueueLog) TimesLen() int { return l.n }

// Overflow returns the number of window drops whose timestamps were
// discarded because the retention cap was reached — the honesty counter
// behind any burstiness score computed from a truncated sample.
func (l *QueueLog) Overflow() uint64 { return l.overflow }

// Total returns the total drop count.
func (l *QueueLog) Total() uint64 { return l.total }

// Flow returns the drop count for one flow (0 for a flow that never
// dropped).
func (l *QueueLog) Flow(f int32) uint64 {
	if f < 0 || int(f) >= len(l.perFlow) {
		return 0
	}
	return l.perFlow[f]
}

// EachGap yields the gaps between consecutive retained drop timestamps
// in seconds, t[i].Seconds() − t[i−1].Seconds(), in order: the walk
// metrics.BurstinessOfGaps takes.
func (l *QueueLog) EachGap(yield func(gap float64)) {
	var prev float64
	for ci, c := range l.chunks {
		for j, t := range c {
			s := t.Seconds()
			if ci > 0 || j > 0 {
				yield(s - prev)
			}
			prev = s
		}
	}
}
