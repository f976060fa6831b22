// Package cca implements the three congestion control algorithms the
// paper studies — NewReno (RFC 6582/5681), Cubic (RFC 8312), and BBRv1
// (Cardwell et al. 2016) — behind a pluggable interface consumed by the
// transport in internal/tcp.
//
// The split of responsibilities mirrors the Linux kernel's: the
// transport owns reliability (SACK scoreboard, retransmission, RTO,
// recovery state) and delivery-rate sampling; the CCA owns the
// congestion window and, for rate-based algorithms, the pacing rate.
package cca

import (
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// InitialCwndSegments is the initial congestion window in segments
// (RFC 6928, the Linux default used by all three of the paper's stacks).
const InitialCwndSegments = 10

// AckEvent carries everything a CCA may want to know about one arriving
// acknowledgment. The transport fills it per ACK after reassembly and
// loss detection.
type AckEvent struct {
	// Now is the virtual arrival time of the ACK.
	Now sim.Time

	// AckedBytes is the number of bytes newly acknowledged by this ACK,
	// cumulatively or selectively.
	AckedBytes units.ByteCount

	// RTT is the round-trip sample produced by this ACK, or 0 when the
	// ACK yielded no sample (Karn's rule: retransmitted segment).
	RTT sim.Time

	// MinRTT is the connection's lifetime minimum RTT estimate (0 until
	// the first sample).
	MinRTT sim.Time

	// Delivered is the connection's cumulative delivered-byte counter
	// after processing this ACK.
	Delivered units.ByteCount

	// Rate is the delivery-rate sample (Cheng et al.) computed from the
	// packet this ACK acknowledges, or 0 when no valid sample exists.
	Rate units.Bandwidth

	// RateAppLimited reports whether the rate sample was taken while
	// the sender was application-limited; such samples may only raise,
	// never lower, a bandwidth estimate.
	RateAppLimited bool

	// RoundStart is true when this ACK begins a new round trip in
	// delivered-byte terms (used by BBR's filters and full-pipe check).
	RoundStart bool

	// InFlight is the transport's in-flight byte estimate ("pipe")
	// after processing this ACK.
	InFlight units.ByteCount

	// InRecovery reports whether the transport is currently in fast
	// recovery.
	InRecovery bool
}

// CCA is a congestion control algorithm. Implementations are stateful
// and belong to exactly one connection; none of the methods are safe for
// concurrent use (the simulation is single-threaded).
type CCA interface {
	// Name returns the algorithm's short name ("reno", "cubic", "bbr").
	Name() string

	// OnAck is invoked once per arriving ACK.
	OnAck(ev AckEvent)

	// OnEnterRecovery is invoked when the transport enters fast
	// recovery (at most once per recovery episode). Loss-based CCAs
	// perform their multiplicative decrease here.
	OnEnterRecovery(now sim.Time, inFlight units.ByteCount)

	// OnExitRecovery is invoked when the recovery point is cumulatively
	// acknowledged.
	OnExitRecovery(now sim.Time)

	// OnRTO is invoked on a retransmission timeout.
	OnRTO(now sim.Time)

	// OnECNMark is invoked when an arriving ACK echoes congestion
	// (RFC 3168 ECE) and the transport elects to react — at most once
	// per window of data, like a single loss event but with nothing to
	// retransmit. inFlight is the pipe estimate at the mark.
	OnECNMark(now sim.Time, inFlight units.ByteCount)

	// Cwnd returns the current congestion window in bytes. The
	// transport sends while in-flight bytes stay below it.
	Cwnd() units.ByteCount

	// PacingRate returns the current pacing rate, or 0 for ACK-clocked
	// algorithms that do not pace.
	PacingRate() units.Bandwidth
}

// RecoveryController is implemented by CCAs that manage their own
// congestion window during loss recovery (rate-based algorithms like
// BBR, which applies packet conservation and save/restore). For CCAs
// without it, the transport applies Proportional Rate Reduction
// (RFC 6937) while in fast recovery, as Linux does for Reno and Cubic.
type RecoveryController interface {
	ControlsRecovery()
}

// Factory builds a CCA instance for one connection. rng provides the
// connection's deterministic randomness (BBR randomizes its ProbeBW
// starting phase).
type Factory func(mss units.ByteCount, rng *sim.RNG) CCA

// ByName returns the factory for a CCA name used across the experiment
// harness and CLIs, or false for an unknown name.
func ByName(name string) (Factory, bool) {
	switch name {
	case "reno", "newreno":
		return func(mss units.ByteCount, _ *sim.RNG) CCA { return NewReno(mss) }, true
	case "cubic":
		return func(mss units.ByteCount, _ *sim.RNG) CCA { return NewCubic(mss) }, true
	case "cubic-nohystart":
		// Ablation variant: Linux cubic with HyStart disabled.
		return func(mss units.ByteCount, _ *sim.RNG) CCA {
			c := NewCubic(mss)
			c.SetHyStart(false)
			return c
		}, true
	case "bbr":
		return func(mss units.ByteCount, rng *sim.RNG) CCA { return NewBBR(mss, rng) }, true
	case "bbr2":
		return func(mss units.ByteCount, rng *sim.RNG) CCA { return NewBBR2(mss, rng) }, true
	}
	return nil, false
}

// Names lists the registered CCA names.
func Names() []string {
	return []string{"reno", "cubic", "cubic-nohystart", "bbr", "bbr2"}
}
