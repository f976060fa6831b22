package tcp

import (
	"ccatscale/internal/audit"
	"ccatscale/internal/cca"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/telemetry"
	"ccatscale/internal/units"
)

// SenderStats is a snapshot of sender-side counters. The Mathis
// analysis (paper §4) is built from these: SegmentsSent and
// Retransmissions give the send-side loss view, FastRecoveries+RTOs is
// the tcpprobe-equivalent CWND-halving count, and the RTT aggregates
// parameterize the model.
type SenderStats struct {
	// SegmentsSent counts every transmission, including
	// retransmissions.
	SegmentsSent uint64
	// Retransmissions counts retransmitted segments only.
	Retransmissions uint64
	// DeliveredBytes is the cumulative delivered-byte counter
	// (cumulatively or selectively acknowledged, each byte once).
	DeliveredBytes units.ByteCount
	// FastRecoveries counts fast-recovery episodes — multiplicative
	// decreases triggered by duplicate-ACK/SACK loss detection. For
	// NewReno this is exactly the paper's "CWND halving" count.
	FastRecoveries uint64
	// RTOs counts retransmission timeouts (each also a multiplicative
	// decrease, to one segment).
	RTOs uint64
	// TLPProbes counts tail-loss probe transmissions.
	TLPProbes uint64
	// ECEAcks counts ACKs that arrived with the congestion-experienced
	// echo set.
	ECEAcks uint64
	// ECNResponses counts window reductions taken in response to ECE
	// (at most one per window of data; each is a congestion event that
	// cost no retransmission).
	ECNResponses uint64
	// RTTSamples, MeanRTT, MinRTT, SRTT summarize the RTT estimator.
	RTTSamples uint64
	MeanRTT    sim.Time
	MinRTT     sim.Time
	SRTT       sim.Time
	// Cwnd is the congestion window at snapshot time.
	Cwnd units.ByteCount
	// InFlight is the pipe estimate at snapshot time.
	InFlight units.ByteCount
}

// Config parameterizes a sender.
type Config struct {
	// MSS is the maximum segment size (payload bytes). Defaults to
	// units.MSS.
	MSS units.ByteCount
	// CCA is the congestion controller; required.
	CCA cca.CCA
	// OutputRef transmits packets toward the network by reference: the
	// pointer is the sender's own packet slot, valid only until the call
	// returns, and the callee must not call back into the sender before
	// it has copied the packet. Exactly one of OutputRef and Output is
	// required.
	OutputRef func(*packet.Packet)
	// Output is OutputRef by value, for callers outside the module.
	Output func(packet.Packet)
	// TransferBytes bounds the transfer: the sender stops producing new
	// data at this many bytes (rounded up to whole segments) and
	// invokes OnComplete when everything is acknowledged. 0 means an
	// infinite stream, the paper's workload.
	TransferBytes units.ByteCount
	// OnComplete fires once when a finite transfer is fully
	// acknowledged; ignored for infinite streams.
	OnComplete func()
	// ECN enables RFC 3168 negotiation: new data is sent ECT,
	// CE-marked deliveries come back as ECE echoes, and the sender
	// responds with at most one window reduction per window of data,
	// confirming via CWR. Retransmissions are never ECT (§6.1.5).
	ECN bool
	// Audit enables the transport invariant checks (nil = off): cheap
	// per-ACK sequence/pipe/timer checks plus a periodic full SACK
	// scoreboard recount.
	Audit *audit.Auditor
	// Telemetry receives the flow's lifecycle and loss/recovery episode
	// events (nil = off; the nil path is branch-identical to an
	// uninstrumented sender).
	Telemetry telemetry.Collector
}

// Sender is the data-source side of a simulated TCP connection,
// transferring an infinite byte stream (the paper's iperf-style
// workload). It owns reliability and ACK clocking; window sizing is the
// CCA's.
type Sender struct {
	eng  *sim.Engine
	flow int32
	mss  units.ByteCount
	out  func(*packet.Packet)
	cc   cca.CCA

	// pkt is the slot every transmission is built in and handed to out
	// from. A segment built on the stack and passed by pointer through
	// the out func value would escape to the heap, once per packet.
	pkt packet.Packet

	window *sendWindow
	rtt    rttEstimator

	// Recovery state.
	inRecovery    bool
	recoveryPoint int64 // segment index; recovery ends when una reaches it
	dupAcks       int

	// Proportional Rate Reduction (RFC 6937) state, active during fast
	// recovery for CCAs that don't manage their own recovery window.
	// PRR paces transmissions at ssthresh/prior-cwnd of the delivery
	// rate so the bottleneck queue drains and retransmissions survive;
	// a frozen-cwnd sender would clock 1-for-1 and never drain an
	// overcommitted queue.
	usePRR       bool
	prrDelivered units.ByteCount
	prrOut       units.ByteCount
	prrSsthresh  units.ByteCount
	prrRecoverFS units.ByteCount
	prrBudget    units.ByteCount

	// RTO state.
	rtoTimer   *sim.Timer
	rtoBackoff uint // consecutive unanswered timeouts

	// Tail-loss probe state (RFC 8985 TLP, simplified): when the tail
	// of the window is lost there are no later segments to produce the
	// SACKs that drive fast recovery, so a probe retransmission of the
	// last segment is sent after ~2 SRTT to elicit them. One probe per
	// flight.
	tlpTimer *sim.Timer
	tlpFired bool

	// Pacing state.
	paceTimer    *sim.Timer
	nextSendTime sim.Time

	// ECN state: ecnRespPoint is the snd.nxt recorded at the last ECE
	// response; further echoes are ignored until it is cumulatively
	// acknowledged (once-per-window, RFC 3168 §6.1.2). sendCWR requests
	// the CWR flag on the next new data segment.
	ecn          bool
	ecnRespPoint int64
	sendCWR      bool

	// Delivery-rate sampling (Cheng et al.).
	delivered     units.ByteCount
	deliveredTime sim.Time
	firstSentTime sim.Time

	// Round-trip accounting for BBR.
	nextRoundDelivered units.ByteCount
	roundStart         bool

	started bool

	// Audit state.
	aud      *audit.Auditor
	ackCount uint64

	// Telemetry collector (nil = off).
	tel telemetry.Collector

	// Finite-transfer state: endSeg is the segment count of the
	// transfer (0 = infinite); completed latches OnComplete.
	endSeg     int64
	onComplete func()
	completed  bool

	stats SenderStats
}

// NewSender creates a sender for flow with the given configuration.
// Call Start to begin transmitting.
func NewSender(eng *sim.Engine, flow int32, cfg Config) *Sender {
	if cfg.CCA == nil {
		panic("tcp: sender without CCA")
	}
	out := cfg.OutputRef
	switch {
	case (cfg.Output == nil) == (cfg.OutputRef == nil):
		panic("tcp: sender needs exactly one of Output and OutputRef")
	case cfg.Output != nil:
		out = func(p *packet.Packet) { cfg.Output(*p) }
	}
	mss := cfg.MSS
	if mss <= 0 {
		mss = units.MSS
	}
	s := &Sender{
		eng:    eng,
		flow:   flow,
		mss:    mss,
		out:    out,
		cc:     cfg.CCA,
		window: newSendWindow(mss),
		aud:    cfg.Audit,
		tel:    cfg.Telemetry,
		ecn:    cfg.ECN,
	}
	s.rtoTimer = sim.NewTimer(eng, s.onRTO)
	s.paceTimer = sim.NewTimer(eng, s.trySend)
	s.tlpTimer = sim.NewTimer(eng, s.onTLP)
	_, controlsRecovery := cfg.CCA.(cca.RecoveryController)
	s.usePRR = !controlsRecovery
	if cfg.TransferBytes > 0 {
		s.endSeg = (int64(cfg.TransferBytes) + int64(mss) - 1) / int64(mss)
		s.onComplete = cfg.OnComplete
	}
	return s
}

// Done reports whether a finite transfer has been fully acknowledged.
func (s *Sender) Done() bool { return s.completed }

// Start schedules the first transmission at virtual time at.
func (s *Sender) Start(at sim.Time) {
	s.eng.Schedule(at, func() {
		s.started = true
		if s.tel != nil {
			s.tel.Emit(telemetry.Event{
				Time: s.eng.Now(), Kind: telemetry.KindFlowStart,
				Flow: s.flow, CCA: s.cc.Name(), A: int64(s.cc.Cwnd()),
			})
		}
		s.trySend()
	})
}

// Flow returns the sender's flow ID.
func (s *Sender) Flow() int32 { return s.flow }

// CCA returns the congestion controller (for instrumentation).
func (s *Sender) CCA() cca.CCA { return s.cc }

// Cwnd returns the current congestion window.
func (s *Sender) Cwnd() units.ByteCount { return s.cc.Cwnd() }

// InFlight returns the pipe estimate.
func (s *Sender) InFlight() units.ByteCount { return s.window.Pipe() }

// Stats returns a snapshot of the sender counters.
func (s *Sender) Stats() SenderStats {
	st := s.stats
	st.DeliveredBytes = s.delivered
	st.RTTSamples = s.rtt.Samples()
	st.MeanRTT = s.rtt.Mean()
	st.MinRTT = s.rtt.Min()
	st.SRTT = s.rtt.SRTT()
	st.Cwnd = s.cc.Cwnd()
	st.InFlight = s.window.Pipe()
	return st
}

// OnAck is OnAckRef by value, for callers outside the module.
func (s *Sender) OnAck(p packet.Packet) { s.OnAckRef(&p) }

// OnAckRef processes one arriving acknowledgment. p is read only, and
// not after the call returns.
func (s *Sender) OnAckRef(p *packet.Packet) {
	now := s.eng.Now()

	// 1. Cumulative acknowledgment.
	ackSeg := p.CumAck / int64(s.mss)
	if s.aud != nil && ackSeg > s.window.Nxt() {
		// "No ACK for unsent data": the receiver cannot acknowledge
		// bytes the sender never transmitted.
		s.aud.Reportf("tcp/ack-beyond-nxt", s.flow,
			"cumulative ACK for segment %d beyond snd.nxt %d", ackSeg, s.window.Nxt())
	}
	var newlyDelivered units.ByteCount
	advanced := ackSeg > s.window.Una()
	if advanced {
		newlyDelivered += s.window.Advance(ackSeg)
		s.dupAcks = 0
	} else {
		s.dupAcks++
	}

	// 2. Selective acknowledgments.
	mss := int64(s.mss)
	for i := int8(0); i < p.NumSack; i++ {
		blk := p.Sack[i]
		newlyDelivered += s.window.SackRange(blk.Start/mss, (blk.End+mss-1)/mss)
	}

	// 3. RTT sample (Karn's rule excludes echoes from retransmitted
	// segments).
	var rttSample sim.Time
	if p.AckedSentAt > 0 && !p.AckedRetrans {
		rttSample = now - p.AckedSentAt
		s.rtt.Update(rttSample)
		s.rtoBackoff = 0
	}

	// 4. Delivery accounting and rate sample.
	rate, appLimited := s.rateSample(p, newlyDelivered, now)

	// 5. Round-trip tracking (delivered-byte rounds, as in the BBR
	// reference).
	s.roundStart = false
	if units.ByteCount(p.Delivered) >= s.nextRoundDelivered {
		s.nextRoundDelivered = s.delivered
		s.roundStart = true
	}

	// 6. Loss detection and recovery transitions. Forward marking finds
	// first losses; the stale-retransmission check finds dropped
	// retransmissions that would otherwise pin the window until RTO.
	newlyLost := s.window.MarkLost()
	newlyLost += s.window.MarkStaleRtxLost()
	if newlyLost > 0 && !s.inRecovery {
		s.enterRecovery(now)
	}
	if s.inRecovery && s.window.Una() >= s.recoveryPoint {
		s.exitRecovery(now)
	}
	s.updatePRR(newlyDelivered)

	// 6b. ECN echo (RFC 3168 §6.1.2): an ECE-carrying ACK is a
	// congestion signal equivalent to one lost segment, reacted to at
	// most once per window of data and never on top of an in-progress
	// loss recovery (which already reduced for this window).
	if s.ecn && p.ECE {
		s.stats.ECEAcks++
		if !s.inRecovery && s.window.Una() >= s.ecnRespPoint {
			s.stats.ECNResponses++
			var priorCwnd units.ByteCount
			if s.tel != nil {
				priorCwnd = s.cc.Cwnd()
			}
			s.cc.OnECNMark(now, s.window.Pipe())
			s.ecnRespPoint = s.window.Nxt()
			s.sendCWR = true
			if s.tel != nil {
				s.tel.Emit(telemetry.Event{
					Time: now, Kind: telemetry.KindLoss,
					Flow: s.flow, CCA: s.cc.Name(), Label: "ecn-mark",
					A: int64(priorCwnd), B: int64(s.window.Pipe()),
				})
			}
		}
	}

	// 7. Congestion control.
	s.cc.OnAck(cca.AckEvent{
		Now:            now,
		AckedBytes:     newlyDelivered,
		RTT:            rttSample,
		MinRTT:         s.rtt.Min(),
		Delivered:      s.delivered,
		Rate:           rate,
		RateAppLimited: appLimited,
		RoundStart:     s.roundStart,
		InFlight:       s.window.Pipe(),
		InRecovery:     s.inRecovery,
	})

	// 8. Retransmission timer (RFC 6298 §5.3): restart only when the
	// ACK acknowledged new data. Restarting on duplicate ACKs would let
	// a steady dupack stream defer the timeout forever, deadlocking on
	// a lost retransmission that only the RTO can repair.
	switch {
	case s.window.InWindow() == 0:
		s.rtoTimer.Stop()
		s.tlpTimer.Stop()
	case advanced || !s.rtoTimer.Pending():
		s.rtoTimer.Reset(s.rto())
	}
	if advanced {
		s.tlpFired = false
	}
	s.armTLP()

	// 9. Finite-transfer completion.
	if s.endSeg > 0 && !s.completed && s.window.Una() >= s.endSeg {
		s.completed = true
		s.rtoTimer.Stop()
		s.tlpTimer.Stop()
		s.paceTimer.Stop()
		if s.onComplete != nil {
			s.onComplete()
		}
		return
	}

	// 10. Send whatever the updated window and pacing allow.
	s.trySend()

	if s.aud != nil {
		s.auditAck()
	}
}

// auditAckEvery is the period (in ACKs) of the full SACK-scoreboard
// recount. The recount is O(window); the per-ACK checks below are O(1),
// which keeps strict auditing affordable at sweep scale.
const auditAckEvery = 256

// auditAck runs the transport invariants after one fully processed ACK.
func (s *Sender) auditAck() {
	s.ackCount++
	w := s.window
	if w.Una() > w.Nxt() {
		s.aud.Reportf("tcp/una-beyond-nxt", s.flow,
			"snd.una %d beyond snd.nxt %d", w.Una(), w.Nxt())
	}
	if pipe := w.Pipe(); pipe < 0 {
		s.aud.Reportf("tcp/pipe-negative", s.flow, "pipe estimate %d bytes", pipe)
	} else if inWin := units.ByteCount(w.InWindow()) * s.mss; pipe > inWin {
		s.aud.Reportf("tcp/pipe-overflow", s.flow,
			"pipe estimate %d exceeds outstanding window %d", pipe, inWin)
	}
	if rto := s.rto(); rto <= 0 {
		s.aud.Reportf("tcp/rto-nonpositive", s.flow, "RTO %v", rto)
	}
	if rate := s.cc.PacingRate(); rate < 0 {
		s.aud.Reportf("tcp/pacing-negative", s.flow, "pacing rate %d", int64(rate))
	}
	if s.ackCount%auditAckEvery == 0 {
		w.audit(s.aud, s.flow)
	}
}

// rateSample implements the delivery-rate estimator: delivered-byte and
// time deltas between this ACK and the send-time snapshots carried by
// the newest segment it covers.
func (s *Sender) rateSample(p *packet.Packet, newlyDelivered units.ByteCount, now sim.Time) (units.Bandwidth, bool) {
	s.delivered += newlyDelivered
	if newlyDelivered > 0 {
		s.deliveredTime = now
	}
	if p.DeliveredAt == 0 || p.RateSentAt == 0 {
		return 0, false
	}
	priorDelivered := units.ByteCount(p.Delivered)
	sendElapsed := p.RateSentAt - p.FirstSentAt
	ackElapsed := s.deliveredTime - p.DeliveredAt
	s.firstSentTime = p.RateSentAt
	interval := sendElapsed
	if ackElapsed > interval {
		interval = ackElapsed
	}
	if interval <= 0 {
		return 0, false
	}
	// Samples shorter than the path's min RTT are unreliable (draft
	// §3.2.2); with segment-aligned delayed ACKs they occur for the
	// very first flight, where FirstSentAt == SentAt.
	if min := s.rtt.Min(); min > 0 && interval < min {
		return 0, false
	}
	deliveredDelta := s.delivered - priorDelivered
	if deliveredDelta <= 0 {
		return 0, false
	}
	return units.Throughput(deliveredDelta, interval), p.AppLimited
}

func (s *Sender) enterRecovery(now sim.Time) {
	s.inRecovery = true
	s.recoveryPoint = s.window.Nxt()
	s.stats.FastRecoveries++
	flightSize := s.window.Pipe()
	var priorCwnd units.ByteCount
	if s.tel != nil {
		priorCwnd = s.cc.Cwnd()
	}
	s.cc.OnEnterRecovery(now, flightSize)
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Time: now, Kind: telemetry.KindLoss,
			Flow: s.flow, CCA: s.cc.Name(), Label: "fast-recovery",
			A: int64(priorCwnd), B: int64(flightSize),
		})
	}
	if s.usePRR {
		s.prrDelivered = 0
		s.prrOut = 0
		s.prrSsthresh = s.cc.Cwnd() // CCAs set cwnd = ssthresh on entry
		s.prrRecoverFS = flightSize
		if s.prrRecoverFS < s.mss {
			s.prrRecoverFS = s.mss
		}
		s.prrBudget = 0
	}
}

func (s *Sender) exitRecovery(now sim.Time) {
	s.inRecovery = false
	s.dupAcks = 0
	s.prrBudget = 0
	s.cc.OnExitRecovery(now)
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Time: now, Kind: telemetry.KindRecoveryExit,
			Flow: s.flow, CCA: s.cc.Name(), A: int64(s.cc.Cwnd()),
		})
	}
}

// updatePRR computes this ACK's transmission allowance (RFC 6937).
func (s *Sender) updatePRR(delivered units.ByteCount) {
	if !s.inRecovery || !s.usePRR {
		return
	}
	s.prrDelivered += delivered
	pipe := s.window.Pipe()
	var sndcnt units.ByteCount
	if pipe > s.prrSsthresh {
		// Proportional reduction: hand out ssthresh/RecoverFS of every
		// delivered byte.
		sndcnt = (s.prrDelivered*s.prrSsthresh+s.prrRecoverFS-1)/s.prrRecoverFS - s.prrOut
	} else {
		// Slow-start-like phase near the target: catch up to ssthresh,
		// with at least one extra segment of headroom for progress.
		limit := s.prrDelivered - s.prrOut
		if delivered > limit {
			limit = delivered
		}
		limit += s.mss
		sndcnt = s.prrSsthresh - pipe
		if sndcnt > limit {
			sndcnt = limit
		}
	}
	if sndcnt < 0 {
		sndcnt = 0
	}
	s.prrBudget = sndcnt
}

// rto returns the current timeout with exponential backoff applied.
func (s *Sender) rto() sim.Time {
	rto := s.rtt.RTO()
	for i := uint(0); i < s.rtoBackoff && rto < MaxRTO; i++ {
		rto *= 2
	}
	if rto > MaxRTO {
		rto = MaxRTO
	}
	return rto
}

// armTLP schedules a tail-loss probe when one is useful: data is
// outstanding, no loss recovery is in progress, and this flight hasn't
// been probed yet. The probe timeout is 2·SRTT, capped below the RTO so
// the probe always gets a chance to convert a timeout into SACK-driven
// recovery.
func (s *Sender) armTLP() {
	if s.window.InWindow() == 0 || s.inRecovery || s.window.HasLost() || s.tlpFired {
		s.tlpTimer.Stop()
		return
	}
	pto := 2 * s.rtt.SRTT()
	if pto == 0 {
		pto = InitialRTO / 2
	}
	if rto := s.rto(); pto >= rto {
		pto = rto * 9 / 10
	}
	s.tlpTimer.Reset(pto)
}

// onTLP transmits the tail probe: a fresh copy of the highest-sent
// segment. The copy travels outside the pipe accounting (it is a
// speculative duplicate); whatever SACK state its ACK reveals drives
// ordinary recovery.
func (s *Sender) onTLP() {
	if s.window.InWindow() == 0 || s.inRecovery || s.window.HasLost() || s.tlpFired {
		return
	}
	s.tlpFired = true
	p := s.segment(s.window.Nxt()-1, true, s.eng.Now())
	s.stats.TLPProbes++
	s.stats.SegmentsSent++
	s.out(p)
}

// segment builds data segment seg in the sender's packet slot and
// returns the slot. It writes every field a data segment carries; the
// others are never set, and no consumer of out writes through its
// pointer, so they stay zero.
func (s *Sender) segment(seg int64, retrans bool, now sim.Time) *packet.Packet {
	p := &s.pkt
	p.Flow = s.flow
	p.Seq = seg * int64(s.mss)
	p.Len = int32(s.mss)
	p.Retrans = retrans
	p.SentAt = now
	p.Delivered = int64(s.delivered)
	p.DeliveredAt = s.deliveredTime
	p.FirstSentAt = s.firstSentTime
	p.ECT = false
	p.CWR = false
	return p
}

// onRTO handles a retransmission timeout: every outstanding segment is
// presumed lost and the window collapses per the CCA's OnRTO.
func (s *Sender) onRTO() {
	if s.window.InWindow() == 0 {
		return
	}
	s.stats.RTOs++
	s.rtoBackoff++
	var priorCwnd, pipe units.ByteCount
	if s.tel != nil {
		priorCwnd = s.cc.Cwnd()
		pipe = s.window.Pipe()
	}
	s.window.MarkAllLost()
	s.inRecovery = false
	s.dupAcks = 0
	s.cc.OnRTO(s.eng.Now())
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Time: s.eng.Now(), Kind: telemetry.KindLoss,
			Flow: s.flow, CCA: s.cc.Name(), Label: "rto",
			A: int64(priorCwnd), B: int64(pipe),
		})
	}
	// Timeout suspends pacing for the retransmission burst decision;
	// the next ACK re-establishes the pacing clock.
	s.nextSendTime = 0
	s.rtoTimer.Reset(s.rto())
	s.trySend()
}

// trySend transmits as much as the congestion window and pacing allow:
// lost segments first (oldest hole first), then new data.
func (s *Sender) trySend() {
	if !s.started {
		return
	}
	now := s.eng.Now()
	prr := s.inRecovery && s.usePRR
	for {
		if !s.window.HasLost() && s.endSeg > 0 && s.window.Nxt() >= s.endSeg {
			return // finite transfer: nothing left to (re)send
		}
		if prr {
			if s.prrBudget < s.mss {
				return // PRR allowance exhausted until the next ACK
			}
		} else if s.window.Pipe()+s.mss > s.cc.Cwnd() {
			return // window-limited
		}
		if rate := s.cc.PacingRate(); rate > 0 && now < s.nextSendTime {
			s.paceTimer.Reset(s.nextSendTime - now)
			return // pacing-limited
		}
		if prr {
			s.prrBudget -= s.mss
			s.prrOut += s.mss
		}
		if seg, ok := s.window.NextLost(); ok {
			s.window.MarkRetransmitted(seg, now)
			s.transmit(seg, true, now)
			continue
		}
		seg := s.window.ExtendOne(now)
		s.transmit(seg, false, now)
	}
}

// transmit emits one segment.
func (s *Sender) transmit(seg int64, retrans bool, now sim.Time) {
	if s.window.Pipe() == s.mss { // this segment restarted an idle pipe
		if s.deliveredTime == 0 || s.window.InWindow() == 1 {
			s.firstSentTime = now
			s.deliveredTime = now
		}
	}
	if s.firstSentTime == 0 {
		s.firstSentTime = now
	}
	if s.deliveredTime == 0 {
		s.deliveredTime = now
	}
	p := s.segment(seg, retrans, now)
	if s.ecn && !retrans {
		p.ECT = true
		if s.sendCWR {
			p.CWR = true
			s.sendCWR = false
		}
	}
	s.stats.SegmentsSent++
	if retrans {
		s.stats.Retransmissions++
	}
	if !s.rtoTimer.Pending() {
		s.rtoTimer.Reset(s.rto())
	}
	s.armTLP()
	if rate := s.cc.PacingRate(); rate > 0 {
		gap := rate.TransmissionTime(p.WireBytes())
		base := s.nextSendTime
		if now > base {
			base = now
		}
		s.nextSendTime = base + gap
	}
	s.out(p)
}
