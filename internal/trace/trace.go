// Package trace provides the instrumentation the paper's testbed got
// from BESS drop logging: a bottleneck drop log (per-flow counts plus
// timestamps for loss-rate and burstiness analysis) and a per-CCA
// goodput time series. What the paper read off the Linux tcpprobe
// module — CWND halvings — is counted at the sender instead
// (tcp.SenderStats: fast recoveries plus RTOs).
package trace

import (
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
)

// QueueLog records bottleneck tail drops, standing in for the paper's
// "logging packet drops at the bottleneck queue in the software
// switch".
type QueueLog struct {
	startAt sim.Time

	times    []sim.Time
	perFlow  map[int32]uint64
	total    uint64
	capTimes int
	overflow uint64
}

// NewQueueLog creates a log. maxTimestamps bounds the retained
// timestamp list (0 = unbounded); per-flow counters are always exact.
// Burstiness needs the raw inter-drop gaps, so CoreScale runs keep a
// large but bounded sample.
func NewQueueLog(maxTimestamps int) *QueueLog {
	return &QueueLog{perFlow: make(map[int32]uint64), capTimes: maxTimestamps}
}

// SetWindowStart discards the notion of drops before t for timestamp
// collection: drops recorded earlier than t are counted but their
// timestamps excluded from burstiness analysis (the paper ignores the
// warm-up period).
func (l *QueueLog) SetWindowStart(t sim.Time) { l.startAt = t }

// OnDrop is the netem.DropFunc to install at the bottleneck.
func (l *QueueLog) OnDrop(now sim.Time, p packet.Packet) {
	l.total++
	l.perFlow[p.Flow]++
	if now < l.startAt {
		return
	}
	if l.capTimes == 0 || len(l.times) < l.capTimes {
		l.times = append(l.times, now)
	} else {
		l.overflow++
	}
}

// TimesLen returns the number of retained drop timestamps (the log's
// trace-point footprint; per-flow counters are O(flows) and not
// counted).
func (l *QueueLog) TimesLen() int { return len(l.times) }

// Overflow returns the number of window drops whose timestamps were
// discarded because the retention cap was reached — the honesty counter
// behind any burstiness score computed from a truncated sample.
func (l *QueueLog) Overflow() uint64 { return l.overflow }

// Total returns the total drop count.
func (l *QueueLog) Total() uint64 { return l.total }

// Flow returns the drop count for one flow.
func (l *QueueLog) Flow(f int32) uint64 { return l.perFlow[f] }

// TimesSeconds returns the retained drop timestamps in seconds, for
// metrics.Burstiness.
func (l *QueueLog) TimesSeconds() []float64 {
	out := make([]float64, len(l.times))
	for i, t := range l.times {
		out[i] = t.Seconds()
	}
	return out
}
