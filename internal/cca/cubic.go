package cca

import (
	"math"

	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// RFC 8312 constants.
const (
	cubicC     = 0.4 // window growth scaling factor (segments/sec³)
	cubicBeta  = 0.7 // multiplicative decrease factor
	cubicAlpha = 3 * (1 - cubicBeta) / (1 + cubicBeta)
)

// HyStart parameters (Ha & Rhee 2011 / HyStart++ RFC 9406 flavors, as
// Linux cubic enables by default): leave slow start when the round's
// minimum RTT rises noticeably above the previous round's, i.e. a queue
// is forming, instead of waiting for the overshoot loss.
const (
	hystartMinSamples = 8                    // RTT samples per round before judging
	hystartMinEta     = 4 * sim.Millisecond  // floor on the divergence threshold
	hystartMaxEta     = 16 * sim.Millisecond // ceiling on the divergence threshold
	hystartLowWindow  = 16                   // segments; no HyStart below this
)

// Cubic implements TCP Cubic congestion control (RFC 8312): window
// growth is a cubic function of time since the last congestion event,
// anchored at the window size where that event occurred, with the
// TCP-friendly region ensuring Cubic never does worse than an AIMD flow
// — the mechanism behind its 70–80 % share against NewReno (paper
// Finding 8).
//
// HyStart is not implemented: the paper's long-running saturating flows
// leave slow start via loss within the first round trips, and HyStart's
// early exit heuristics would add a degree of freedom the study does not
// exercise.
type Cubic struct {
	mss units.ByteCount

	cwnd     float64 // segments
	ssthresh float64 // segments

	// Cubic epoch state, reset at each congestion event.
	wMax       float64  // window just before the last reduction (segments)
	k          float64  // time offset to reach wMax again (seconds)
	epochStart sim.Time // 0 = epoch not started
	originSeg  float64  // plateau origin W_max for the current epoch
	ackedSeg   float64  // segments acked this epoch (for W_est)

	lastRTT    sim.Time
	inRecovery bool

	// HyStart state (delay-increase detection during slow start).
	hystartEnabled  bool
	hsCurrMin       sim.Time // current round's min RTT
	hsCurrSamples   int
	hsLastRoundMin  sim.Time // previous completed round's min RTT
	hystartTriggers int      // rounds where HyStart ended slow start (stats)
}

// NewCubic returns a Cubic controller with the standard 10-segment
// initial window and HyStart enabled, matching Linux defaults.
func NewCubic(mss units.ByteCount) *Cubic {
	return &Cubic{
		mss:            mss,
		cwnd:           InitialCwndSegments,
		ssthresh:       math.MaxFloat64,
		hystartEnabled: true,
	}
}

// SetHyStart enables or disables HyStart (the ablation benchmarks turn
// it off to measure slow-start overshoot).
func (c *Cubic) SetHyStart(on bool) { c.hystartEnabled = on }

// HyStartExits reports how many times HyStart ended slow start.
func (c *Cubic) HyStartExits() int { return c.hystartTriggers }

// Name implements CCA.
func (c *Cubic) Name() string { return "cubic" }

// Cwnd implements CCA.
func (c *Cubic) Cwnd() units.ByteCount {
	return units.ByteCount(c.cwnd * float64(c.mss))
}

// PacingRate implements CCA: Cubic is ACK-clocked.
func (c *Cubic) PacingRate() units.Bandwidth { return 0 }

// InSlowStart reports whether the window is below ssthresh.
func (c *Cubic) InSlowStart() bool { return c.cwnd < c.ssthresh }

// Ssthresh returns the slow-start threshold in bytes (saturating at
// MaxInt64 for the initial "infinite" threshold), for instrumentation
// and the invariant auditor.
func (c *Cubic) Ssthresh() units.ByteCount {
	bytes := c.ssthresh * float64(c.mss)
	if bytes >= float64(math.MaxInt64) {
		return units.ByteCount(math.MaxInt64)
	}
	return units.ByteCount(bytes)
}

// WMax returns the window (in segments) recorded at the last reduction,
// the anchor of the cubic growth function (0 before any reduction).
func (c *Cubic) WMax() float64 { return c.wMax }

// OnAck implements CCA.
func (c *Cubic) OnAck(ev AckEvent) {
	if c.inRecovery || ev.AckedBytes <= 0 {
		return
	}
	if ev.RTT > 0 {
		c.lastRTT = ev.RTT
	}
	ackedSeg := float64(ev.AckedBytes) / float64(c.mss)
	if c.InSlowStart() {
		c.hystart(ev)
		if !c.InSlowStart() {
			return
		}
		// Slow start, ABC-capped at 2 segments per ACK as in NewReno.
		if ackedSeg > 2 {
			ackedSeg = 2
		}
		c.cwnd += ackedSeg
		if c.cwnd > c.ssthresh {
			c.cwnd = c.ssthresh
		}
		return
	}
	c.congestionAvoidance(ev.Now, ackedSeg)
}

// hystart runs the delay-increase slow-start exit check: once the
// current round's min RTT exceeds the previous round's by more than
// η = clamp(prevMin/8, 4ms, 16ms), a queue is forming and slow start
// ends at the current window.
func (c *Cubic) hystart(ev AckEvent) {
	if !c.hystartEnabled || c.cwnd < hystartLowWindow {
		return
	}
	if ev.RoundStart {
		if c.hsCurrSamples >= hystartMinSamples {
			c.hsLastRoundMin = c.hsCurrMin
		}
		c.hsCurrMin = 0
		c.hsCurrSamples = 0
	}
	if ev.RTT <= 0 {
		return
	}
	if c.hsCurrMin == 0 || ev.RTT < c.hsCurrMin {
		c.hsCurrMin = ev.RTT
	}
	c.hsCurrSamples++
	if c.hsLastRoundMin == 0 || c.hsCurrSamples < hystartMinSamples {
		return
	}
	eta := c.hsLastRoundMin / 8
	if eta < hystartMinEta {
		eta = hystartMinEta
	}
	if eta > hystartMaxEta {
		eta = hystartMaxEta
	}
	if c.hsCurrMin > c.hsLastRoundMin+eta {
		c.ssthresh = c.cwnd
		c.hystartTriggers++
	}
}

// congestionAvoidance performs the RFC 8312 window update for one ACK.
func (c *Cubic) congestionAvoidance(now sim.Time, ackedSeg float64) {
	if c.epochStart == 0 {
		c.epochStart = now
		c.ackedSeg = 0
		if c.cwnd < c.wMax {
			c.k = math.Cbrt((c.wMax - c.cwnd) / cubicC)
			c.originSeg = c.wMax
		} else {
			c.k = 0
			c.originSeg = c.cwnd
		}
	}
	c.ackedSeg += ackedSeg

	t := (now - c.epochStart).Seconds()
	rtt := c.lastRTT.Seconds()
	if rtt <= 0 {
		rtt = 0.1 // no sample yet; a conservative placeholder
	}

	// Target: where the cubic curve says the window should be one RTT
	// from now (RFC 8312 §4.1).
	dt := t + rtt - c.k
	target := c.originSeg + float64(cubicC*dt*dt*dt)
	switch {
	case target < c.cwnd:
		target = c.cwnd // cubic never shrinks the window on an ACK
	case target > 1.5*c.cwnd:
		target = 1.5 * c.cwnd // RFC 8312 growth clamp
	}
	// Per-ACK increment spreading (target − cwnd) over one window's
	// worth of ACKs.
	c.cwnd += (target - c.cwnd) * ackedSeg / c.cwnd

	// TCP-friendly region (RFC 8312 §4.2): estimate what AIMD with the
	// same β would achieve; never be slower than that.
	wEst := float64(c.wMax*cubicBeta) + float64(cubicAlpha*(t/rtt))
	if wEst > c.cwnd {
		c.cwnd = wEst
	}
}

// OnEnterRecovery implements CCA: the multiplicative decrease with fast
// convergence (RFC 8312 §4.5–4.6).
func (c *Cubic) OnEnterRecovery(_ sim.Time, _ units.ByteCount) {
	c.reduce()
	c.inRecovery = true
}

// OnExitRecovery implements CCA.
func (c *Cubic) OnExitRecovery(_ sim.Time) { c.inRecovery = false }

// OnECNMark implements CCA: an echoed CE mark takes the RFC 8312
// multiplicative decrease (with fast convergence), the Linux cubic
// response to ECN, without entering a recovery episode.
func (c *Cubic) OnECNMark(_ sim.Time, _ units.ByteCount) {
	if c.inRecovery {
		return
	}
	c.reduce()
}

// OnRTO implements CCA: like NewReno, collapse to one segment; the
// cubic epoch restarts from the reduced window.
func (c *Cubic) OnRTO(_ sim.Time) {
	c.reduce()
	c.cwnd = 1
	c.inRecovery = false
}

func (c *Cubic) reduce() {
	if c.cwnd < c.wMax {
		// Fast convergence: a loss before regaining the previous
		// maximum means a new flow is competing; release extra room.
		c.wMax = c.cwnd * (2 - cubicBeta) / 2
	} else {
		c.wMax = c.cwnd
	}
	c.cwnd *= cubicBeta
	if c.cwnd < 2 {
		c.cwnd = 2
	}
	c.ssthresh = c.cwnd
	c.epochStart = 0
}
