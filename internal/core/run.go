// Package core is the paper's contribution rebuilt as a library: the
// at-scale congestion-control evaluation harness. It wires the netem
// substrate, tcp transport, and cca algorithms into the methodology of
// §3.2 — N infinite flows with staggered starts over one drop-tail
// bottleneck, a warm-up exclusion window, an optional convergence-based
// early stop — and computes every metric the paper's tables and figures
// report.
//
// There is one fabric, netem.Topology. The paper's dumbbell is its
// one-link case (RunConfig.fabricSpec); a declared RunConfig.Topology
// runs through the same code. There is one harness too: RunCtx is a
// sequence of named phases over one run struct — build, wire,
// instrument, finish — and flow churn (RunConfig.Arrivals) is an arrival
// process inside it, not a second one.
package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"ccatscale/internal/audit"
	"ccatscale/internal/budget"
	"ccatscale/internal/cca"
	"ccatscale/internal/metrics"
	"ccatscale/internal/netem"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/tcp"
	"ccatscale/internal/telemetry"
	"ccatscale/internal/trace"
	"ccatscale/internal/units"
)

// FlowSpec describes one flow of a run.
type FlowSpec struct {
	// CCA is the congestion control algorithm name ("reno", "cubic",
	// "bbr").
	CCA string
	// RTT is the flow's base round-trip time.
	RTT sim.Time
}

// RunConfig describes one experiment run.
type RunConfig struct {
	// Rate is the bottleneck bandwidth.
	Rate units.Bandwidth
	// Buffer is the drop-tail queue capacity.
	Buffer units.ByteCount
	// Flows lists every flow.
	Flows []FlowSpec
	// Warmup is excluded from all metrics (the paper ignores the first
	// five minutes).
	Warmup sim.Time
	// Duration is the measurement window after warm-up.
	Duration sim.Time
	// Stagger is the start-time window: each flow begins at a uniform
	// random offset in [0, Stagger) (the paper uses 0–2 minutes).
	Stagger sim.Time
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed uint64
	// MSS defaults to units.MSS when zero.
	MSS units.ByteCount
	// DelAckDelay is the delayed-ACK timeout; 0 picks the default
	// (tcp.DelayedAckTimeout); negative disables delayed ACKs.
	DelAckDelay sim.Time
	// GROWindow is the receive-offload coalescing gap; 0 picks the
	// default (tcp.GROWindow, modeling the testbed's GRO + interrupt
	// coalescing); negative disables receive offload.
	GROWindow sim.Time
	// RandomLoss applies independent per-packet loss (netem-style). The
	// paper's runs use 0 ("there is no random loss"); calibration
	// experiments use it to validate the Mathis constant under the
	// model's own independent-loss assumption. It and the next three
	// fields are the stages of the dumbbell's one link (netem.LinkSpec);
	// a declared Topology sets them per link and rejects them here.
	RandomLoss float64
	// Jitter adds uniform random delay in [0, Jitter) per data packet
	// (netem-style).
	Jitter sim.Time
	// BurstLoss applies Gilbert–Elliott burst loss (nil = off). Unlike
	// RandomLoss, drops arrive in correlated bursts — the regime where
	// the independent-loss throughput models break.
	BurstLoss *netem.BurstLossSpec
	// Outage schedules deterministic link outages (nil = none).
	Outage *netem.OutageSpec
	// FaultPanicAt, when positive, deliberately panics inside the event
	// loop at this virtual time. It exists to drill the run supervisor
	// end to end (tests, and reproduce -panicjob): the panic must
	// surface as a *RunError, not a crashed process.
	FaultPanicAt sim.Time
	// WallLimit bounds the run's wall-clock time; when exceeded the
	// supervisor stops the engine and returns a *RunError (0 = off).
	WallLimit time.Duration
	// StallEvents stops the run with a *RunError when the virtual clock
	// fails to advance across this many consecutive events — a livelock
	// guard for zero-delay event loops (0 = off).
	StallEvents uint64
	// Converge, when positive, enables the paper's early-stop rule:
	// the run ends once aggregate goodput changes by less than
	// ConvergeTolerance across consecutive windows of this length.
	// Duration then acts as the maximum run length, like the paper's
	// 3-hour cap.
	Converge sim.Time
	// ConvergeTolerance defaults to 0.01 (1 %).
	ConvergeTolerance float64
	// MaxDropTimestamps bounds the retained drop-time list for
	// burstiness (0 = keep all).
	MaxDropTimestamps int
	// SeriesInterval, when positive, samples per-CCA aggregate goodput
	// at this period; the series is retained in RunResult.Series.
	SeriesInterval sim.Time
	// AQM selects the bottleneck discipline ("" or "droptail" = the
	// paper's drop-tail; "codel" = RFC 8289 CoDel, an extension axis).
	AQM string
	// Topology, when non-nil, replaces the dumbbell with a declared
	// multi-bottleneck graph: per-link rates, delays, buffers,
	// disciplines, and impairments, with flow f routed over
	// Topology.Paths[f] (so len(Paths) must equal len(Flows)). Rate,
	// Buffer, and AQM are ignored — every link declares its own — while
	// per-flow base RTTs still come from Flows, the residual after the
	// forward propagation delays riding the ACK return path.
	Topology *netem.TopologySpec `json:",omitempty"`
	// Arrivals, when non-nil, adds flow churn: finite transfers arriving
	// over [0, Warmup+Duration) beside the persistent Flows, the run
	// extended by the spec's drain. Dumbbell only.
	Arrivals *ArrivalSpec `json:",omitempty"`
	// ECN enables RFC 3168 end-to-end negotiation: senders mark new
	// data ECT, marking queues set CE instead of (or ahead of)
	// dropping, receivers echo ECE, and senders reduce once per window
	// of data. On the dumbbell it also arms CE marking at the
	// bottleneck; topology links arm marking individually via
	// LinkSpec.ECN.
	ECN bool `json:",omitempty"`
	// ECNMarkBytes overrides the dumbbell's drop-tail CE-marking
	// threshold in wire bytes (0 = a quarter of the buffer; ignored by
	// CoDel, whose control law decides when to mark).
	ECNMarkBytes units.ByteCount `json:",omitempty"`
	// Audit selects the invariant-auditing policy: "" or "off" disables
	// it, "warn" counts violations and reports them in the result,
	// "strict" fails the run at the first violation with a structured,
	// replayable *RunError.
	Audit string
	// AuditDrillAt, when positive, deliberately corrupts one bottleneck
	// queue byte-decrement at this virtual time — a seeded accounting
	// bug the conservation ledger must catch. It requires a non-off
	// Audit policy and exists to drill the auditor end to end.
	AuditDrillAt sim.Time
	// Budget bounds the run's resource consumption (nil = unlimited).
	// A config whose estimate exceeds it is rejected at admission with a
	// *budget.BudgetError; in-flight breaches stop the run via the
	// engine's interrupt hook and surface as a *RunError whose Budget
	// field carries the structured breach and a checkpoint of what
	// completed. A nil Budget leaves the run's hot path exactly as it
	// was: budget-free runs stay bit-identical.
	Budget *budget.Budget
	// Collector receives the run's telemetry events (nil = off, the
	// default). Telemetry only observes: it adds no engine events and
	// consumes no randomness, so an instrumented run stays bit-identical
	// to an uninstrumented one — cmd/fprint verifies this. The field is
	// excluded from serialization: a collector is a live attachment, not
	// part of the experiment's identity.
	Collector telemetry.Collector `json:"-"`
}

func (c *RunConfig) withDefaults() RunConfig {
	out := *c
	if out.MSS <= 0 {
		out.MSS = units.MSS
	}
	if out.DelAckDelay == 0 {
		out.DelAckDelay = tcp.DelayedAckTimeout
	}
	if out.DelAckDelay < 0 {
		out.DelAckDelay = 0
	}
	if out.GROWindow == 0 {
		out.GROWindow = tcp.GROWindow
	}
	if out.GROWindow < 0 {
		out.GROWindow = 0
	}
	if out.ConvergeTolerance <= 0 {
		out.ConvergeTolerance = 0.01
	}
	return out
}

func (c *RunConfig) validate() error {
	if c.Arrivals != nil {
		if err := c.Arrivals.validate(); err != nil {
			return err
		}
	}
	if _, err := parseAQM(c.AQM); err != nil {
		return err
	}
	// The netem layer owns the topology validation (zero/negative rate,
	// degenerate queue capacity, bad RTTs) so the same descriptive
	// errors surface whether a dumbbell is built through core or
	// directly.
	rtts := c.rtts()
	if c.Topology != nil {
		if len(c.Topology.Paths) != len(c.Flows) {
			return fmt.Errorf("core: topology declares %d flow paths but config has %d flows",
				len(c.Topology.Paths), len(c.Flows))
		}
		if c.RandomLoss != 0 || c.Jitter != 0 || c.BurstLoss != nil || c.Outage != nil {
			return fmt.Errorf("core: RandomLoss, Jitter, BurstLoss and Outage describe the dumbbell's link; with a declared topology set them per link")
		}
		if c.Arrivals != nil {
			return fmt.Errorf("core: arrivals need the dumbbell; a declared topology has no path for a transfer")
		}
	} else if err := (netem.DumbbellConfig{Rate: c.Rate, Buffer: c.Buffer, RTT: rtts}).Validate(); err != nil {
		return err
	}
	// The dumbbell's impairments are its link's fields and get the
	// link's checks.
	spec, _ := c.fabricSpec(rtts)
	if err := (netem.TopologyConfig{Spec: spec, RTT: rtts}).Validate(); err != nil {
		return err
	}
	if c.Duration <= 0 {
		return fmt.Errorf("core: non-positive duration")
	}
	if _, err := audit.ParsePolicy(c.Audit); err != nil {
		return err
	}
	if c.AuditDrillAt < 0 {
		return fmt.Errorf("core: negative audit-drill time")
	}
	if c.AuditDrillAt > 0 {
		if p, _ := audit.ParsePolicy(c.Audit); p == audit.PolicyOff {
			return fmt.Errorf("core: audit drill requires -audit warn or strict (the drill corrupts queue accounting; without the auditor it would silently poison results)")
		}
	}
	if c.FaultPanicAt < 0 {
		return fmt.Errorf("core: negative fault-injection time")
	}
	for i, f := range c.Flows {
		if _, ok := cca.ByName(f.CCA); !ok {
			return fmt.Errorf("core: flow %d has unknown CCA %q", i, f.CCA)
		}
	}
	return nil
}

// parseAQM resolves a bottleneck discipline name ("" or "droptail" is the
// paper's drop-tail, "codel" is RFC 8289 CoDel).
func parseAQM(name string) (netem.AQM, error) {
	switch name {
	case "", "droptail":
		return netem.DropTail, nil
	case "codel":
		return netem.CoDel, nil
	}
	return netem.DropTail, fmt.Errorf("core: unknown AQM %q", name)
}

// FlowResult holds one flow's measurement-window metrics.
type FlowResult struct {
	Spec FlowSpec

	// GoodputBps is in-order delivered bytes per second over the
	// window, in bits/sec.
	Goodput units.Bandwidth

	// SegmentsSent counts transmissions (including retransmissions)
	// during the window.
	SegmentsSent uint64
	// SegmentsDelivered counts segments first delivered during the
	// window.
	SegmentsDelivered uint64
	// Drops counts this flow's bottleneck tail drops during the window.
	Drops uint64
	// Halvings counts multiplicative-decrease episodes (fast recoveries
	// + RTOs) during the window — the tcpprobe-derived quantity.
	Halvings uint64
	// FastRecoveries and RTOs break Halvings down by trigger.
	FastRecoveries uint64
	RTOs           uint64
	// Retransmissions during the window.
	Retransmissions uint64

	// LossRate is Drops / SegmentsSent (the network-measured p).
	LossRate float64
	// HalvingRate is Halvings / SegmentsDelivered (the end-host p).
	HalvingRate float64

	// MeanRTT and MinRTT summarize the flow's window RTT samples.
	MeanRTT sim.Time
	MinRTT  sim.Time

	// ECNResponses counts window reductions taken in response to ECE
	// echoes during the window (0 without ECN) — congestion events that
	// cost no retransmission, so they are not part of Halvings.
	ECNResponses uint64 `json:",omitempty"`
}

// RunResult aggregates one run.
type RunResult struct {
	Config RunConfig
	Flows  []FlowResult

	// Window is the realized measurement window (shorter than
	// Config.Duration when the convergence rule stopped the run).
	Window sim.Time
	// Converged reports whether the early-stop rule fired.
	Converged bool

	// AggregateGoodput sums flow goodputs.
	AggregateGoodput units.Bandwidth
	// Utilization is bottleneck busy fraction over the whole run.
	Utilization float64
	// TotalDrops over the window (bottleneck tail drops).
	TotalDrops uint64
	// RandomDrops, BurstDrops and OutageDrops count packets lost to iid,
	// Gilbert–Elliott and outage stages over the whole run, summed
	// across links. Impairment loss is reported here, by kind, and never
	// as a queue drop: TotalDrops, per-flow Drops and LossRate, and the
	// burstiness series exclude it.
	RandomDrops uint64
	BurstDrops  uint64
	OutageDrops uint64
	// DropBurstiness is the Goh–Barabási score over window drop times.
	DropBurstiness float64
	// Events is the number of simulator events processed (for
	// performance reporting).
	Events uint64

	// CEMarks counts CE marks made across the fabric over the whole run
	// (0 without ECN).
	CEMarks uint64 `json:",omitempty"`
	// Links reports per-link counters for topology runs, in declaration
	// order (nil for the classic dumbbell, whose single bottleneck is
	// reported by the top-level fields).
	Links []netem.LinkStat `json:",omitempty"`
	// Arrivals reports the arrival process (nil unless
	// Config.Arrivals was set).
	Arrivals *ArrivalStats `json:",omitempty"`

	// AuditViolations counts invariant violations observed under the
	// "warn" audit policy (under "strict" the first violation fails the
	// run instead, so a successful strict result always reports 0).
	AuditViolations uint64
	// AuditViolationSample holds the first few recorded violations when
	// AuditViolations > 0.
	AuditViolationSample []audit.InvariantViolation

	// SeriesNames and Series hold the per-CCA goodput time series when
	// SeriesInterval was configured.
	SeriesNames []string
	Series      []trace.SeriesPoint

	// Usage records the resources the run actually consumed — the
	// observability side of budget governance, and the ground truth the
	// footprint estimator is calibrated against. Always populated;
	// PeakHeapBytes stays 0 unless a heap budget enabled sampling.
	Usage budget.Usage
}

// flowSnap captures the per-flow counters at the warm-up boundary.
type flowSnap struct {
	delivered   units.ByteCount
	sent        uint64
	retrans     uint64
	recoveries  uint64
	rtos        uint64
	drops       uint64
	rttSum      sim.Time
	rttCount    uint64
	deliveredTx units.ByteCount // sender-side delivered counter
	ecnResps    uint64
}

// Run executes one experiment under the run supervisor and returns its
// results. Invariant panics anywhere in the simulation stack and
// watchdog stops (WallLimit, StallEvents) surface as a *RunError
// carrying the seed, config snapshot, virtual time, and event count —
// enough to replay the failure in one command — rather than crashing
// the process.
func Run(cfg RunConfig) (RunResult, error) {
	return RunCtx(context.Background(), cfg)
}

// rtts lists the base round-trip times indexed by flow ID: the
// persistent flows, then one slot per concurrently tracked transfer.
func (c *RunConfig) rtts() []sim.Time {
	out := make([]sim.Time, len(c.Flows), c.slots())
	for i, f := range c.Flows {
		out[i] = f.RTT
	}
	for len(out) < cap(out) {
		out = append(out, c.Arrivals.RTT)
	}
	return out
}

// slots is the number of flow IDs the run uses: the persistent flows,
// then Arrivals.MaxFlows (default 4096) transfer slots.
func (c *RunConfig) slots() int {
	switch a := c.Arrivals; {
	case a == nil:
		return len(c.Flows)
	case a.MaxFlows <= 0:
		return len(c.Flows) + 4096
	default:
		return len(c.Flows) + a.MaxFlows
	}
}

// horizon is the virtual time the run ends at: warm-up plus measurement
// window, plus Arrivals.Drain (default 30 s).
func (c *RunConfig) horizon() sim.Time {
	switch a := c.Arrivals; {
	case a == nil:
		return c.Warmup + c.Duration
	case a.Drain <= 0:
		return c.Warmup + c.Duration + 30*sim.Second
	default:
		return c.Warmup + c.Duration + a.Drain
	}
}

// fabricSpec yields the graph the run executes and whether the config
// declared it. It is the one place that knows the paper's dumbbell is a
// one-link topology: without a declared Topology, Rate, Buffer, AQM, ECN,
// ECNMarkBytes and the four impairments describe its single bottleneck
// link, which each of the rtts' flows crosses. The footprint estimator
// reads only the links and passes no rtts.
func (c *RunConfig) fabricSpec(rtts []sim.Time) (spec netem.TopologySpec, declared bool) {
	if c.Topology != nil {
		return *c.Topology, true
	}
	discipline, _ := parseAQM(c.AQM) // validate has rejected unknown names
	spec = netem.DumbbellConfig{
		Rate: c.Rate, Buffer: c.Buffer, RTT: rtts,
		Discipline: discipline, ECN: c.ECN, ECNMarkBytes: c.ECNMarkBytes,
	}.Spec()
	l := &spec.Links[0]
	l.LossRate, l.Jitter, l.BurstLoss, l.Outage = c.RandomLoss, c.Jitter, c.BurstLoss, c.Outage
	return spec, false
}

// RunCtx is Run with cooperative cancellation: ctx is polled from the
// engine's interrupt hook (the same supervisor channel the watchdogs
// and budgets use), so cancellation stops the run within one interrupt
// interval and surfaces as a *RunError. A background context adds no
// hook and changes nothing.
//
// A budgeted config is priced first (EstimateConfig): one that does not
// fit its Budget is rejected with a plain admission-stage
// *budget.BudgetError before anything is built. Nothing ran, so there is
// no RunError to replay.
func RunCtx(ctx context.Context, cfg RunConfig) (res RunResult, err error) {
	if err := cfg.validate(); err != nil {
		return RunResult{}, err
	}
	cfg = cfg.withDefaults()

	// A context deadline is a harder promise than WallLimit: the caller
	// (a server's per-job deadline, a batch driver's shutdown grace)
	// needs the run stopped AND its outcome committed before it expires.
	// A ctx-done stop surfaces as a cancellation the caller checkpoints;
	// clamping WallLimit just under the deadline (the interrupt hook tests
	// it first) makes the wall-clock watchdog win instead, which surfaces
	// as a replayable "wall-clock" RunError and leaves the 5% margin for
	// the commit.
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			clamped := rem - rem/20
			if cfg.WallLimit <= 0 || clamped < cfg.WallLimit {
				cfg.WallLimit = clamped
			}
		}
	}

	if !cfg.Budget.Unlimited() {
		if berr := EstimateConfig(cfg).Check(cfg.Budget, cfg.horizon()); berr != nil {
			return RunResult{}, berr
		}
	}

	// The phases below draw from r.rng and schedule on r.eng in a fixed
	// order; that order is the run's identity, so it must not change.
	r := newRun(ctx, cfg)
	defer r.rescue(&res, &err)
	r.build()
	r.wire()
	r.instrument()
	return r.finish(r.eng.Run(r.end))
}

// run is one experiment in flight: the state its phases hand to each
// other, from construction to the assembled result.
type run struct {
	ctx  context.Context
	done <-chan struct{}
	cfg  RunConfig

	eng  *sim.Engine
	rng  *sim.RNG
	coll telemetry.Collector
	// aud is the invariant auditor (nil when the policy is off). It
	// observes the run — every hook is read-only with respect to
	// simulation state — so enabling it never perturbs the deterministic
	// trace.
	aud       *audit.Auditor
	wallStart time.Time
	end       sim.Time

	// build
	qlog    *trace.QueueLog
	flowRNG []*sim.RNG // persistent flows' splits; the RNG rule draws them before fab's
	fab     *netem.Topology
	// ecn is whether the transport negotiates ECN: whenever anything in
	// the fabric can mark. Queues only ever mark ECT traffic, so a
	// topology with an ECN link but non-ECT senders would silently never
	// mark.
	ecn bool

	// wire
	output    func(*packet.Packet) // every sender's path into the fabric
	senders   []*tcp.Sender        // indexed by flow ID; a transfer's slot
	receivers []*tcp.Receiver      // is nil between incarnations
	arrivals  *ArrivalStats
	// End-to-end ledger terms, maintained only while auditing (forward
	// data path only; ACKs ride the uncongested reverse path and never
	// enter a queue).
	injectedWire, arrivedWire units.ByteCount

	// instrument
	series      *trace.ThroughputSeries
	seriesNames []string
	snaps       []flowSnap
	converged   bool

	// supervise
	watchdogReason string
	breach         *budget.BudgetError
	peakEventCap   int
	peakHeap       int64
	lastNow        sim.Time
	lastAdvance    uint64
	ticks          uint64
	mem            runtime.MemStats
	lastPeakBytes  units.ByteCount
	nextSample     sim.Time
}

// newRun creates the engine, the RNG and the auditor, and announces the
// run to telemetry.
func newRun(ctx context.Context, cfg RunConfig) *run {
	r := &run{
		ctx:     ctx,
		done:    ctx.Done(),
		cfg:     cfg,
		eng:     sim.NewEngine(),
		rng:     sim.NewRNG(cfg.Seed),
		coll:    cfg.Collector,
		end:     cfg.horizon(),
		lastNow: -1,
	}
	if r.coll != nil {
		r.coll.Emit(telemetry.Event{
			Kind: telemetry.KindRunStart, Flow: -1,
			A: int64(len(cfg.Flows)), B: int64(cfg.Seed),
		})
	}
	pol, _ := audit.ParsePolicy(cfg.Audit)
	r.aud = audit.New(pol, r.eng.Now)
	if r.aud != nil {
		r.eng.SetAudit(func(check, detail string) {
			r.aud.Reportf(check, -1, "%s", detail)
		})
	}
	r.wallStart = time.Now()
	return r
}

// rescue, deferred by RunCtx, turns a panic anywhere in the simulation
// stack into a replayable *RunError.
func (r *run) rescue(res *RunResult, err *error) {
	v := recover()
	if v == nil {
		return
	}
	*res = RunResult{}
	re := &RunError{
		Reason:      "panic",
		Seed:        r.cfg.Seed,
		VirtualTime: r.eng.Now(),
		Events:      r.eng.Processed(),
		Wall:        time.Since(r.wallStart),
		PanicMsg:    fmt.Sprint(v),
		Stack:       string(debug.Stack()),
		Config:      r.cfg,
	}
	if viol, ok := v.(*audit.InvariantViolation); ok {
		// A strict-policy audit failure: keep the structured
		// violation so batch drivers can report which check
		// fired and where without parsing the panic string.
		re.Reason = "invariant violation"
		re.Violation = viol
	}
	*err = re
}

// build creates the drop log, the persistent flows' RNG streams and the
// fabric, and schedules the two drills that act on them.
func (r *run) build() {
	cfg, eng := &r.cfg, r.eng
	if cfg.FaultPanicAt > 0 {
		at := cfg.FaultPanicAt
		eng.Schedule(at, func() {
			panic(fmt.Sprintf("core: injected fault at %v (FaultPanicAt)", at))
		})
	}

	r.qlog = trace.NewQueueLog(cfg.MaxDropTimestamps)
	r.qlog.SetWindowStart(cfg.Warmup)

	// The RNG rule: every published fingerprint depends on the order of
	// draws from r.rng. A declared topology's split comes first (drawn
	// whether or not a link declares a stochastic stage; its links split
	// from that stream), then one split per persistent flow, then the
	// undeclared dumbbell's stages straight from r.rng — iid/jitter, then
	// burst — and in wire the stagger draws and the arrival process.
	rtts := cfg.rtts()
	spec, declared := cfg.fabricSpec(rtts)
	stageRNG := r.rng
	if declared {
		stageRNG = r.rng.Split()
	}
	r.flowRNG = make([]*sim.RNG, len(cfg.Flows))
	for i := range r.flowRNG {
		r.flowRNG[i] = r.rng.Split()
	}
	r.fab = netem.NewTopology(eng, stageRNG, netem.TopologyConfig{
		Spec:      spec,
		RTT:       rtts,
		OnDrop:    r.qlog.OnDrop,
		Audit:     r.aud,
		Telemetry: r.coll,
	})
	r.ecn = cfg.ECN
	for _, l := range spec.Links {
		r.ecn = r.ecn || l.ECN
	}
	if cfg.AuditDrillAt > 0 {
		// The seeded accounting bug: corrupt the queue's byte counter at
		// the requested time. The conservation ledger must catch it on
		// the next queue operation.
		eng.Schedule(cfg.AuditDrillAt, func() { r.fab.DrillCorruptQueue() })
	}
}

// wire creates the persistent flows' endpoints, attaches the demux to
// the fabric, and schedules the flow starts and the arrival process.
func (r *run) wire() {
	cfg, fab := &r.cfg, r.fab
	// The data path is by reference end to end: each sender hands the
	// fabric its own packet slot, and the endpoints get the slot the
	// packet arrived in (netem.RefSink's rule holds for all of them).
	r.output = fab.SendDataRef
	if r.aud != nil {
		r.output = func(p *packet.Packet) {
			r.injectedWire += p.WireBytes()
			fab.SendDataRef(p)
		}
	}
	senders := make([]*tcp.Sender, cfg.slots())
	receivers := make([]*tcp.Receiver, cfg.slots())
	r.senders, r.receivers = senders, receivers
	for i, f := range cfg.Flows {
		// Controller, sender and receiver are allocated together: every
		// ACK touches all three.
		factory, _ := cca.ByName(f.CCA)
		r.connect(int32(i), factory(cfg.MSS, r.flowRNG[i]), 0, nil)
	}

	toReceiver := func(p *packet.Packet) { receivers[p.Flow].OnDataRef(p) }
	toSender := func(p *packet.Packet) { senders[p.Flow].OnAckRef(p) }
	if cfg.Arrivals != nil {
		// A finished transfer's slot is empty through its quarantine:
		// stragglers (a late retransmission, returning ACKs) stop here.
		toReceiver = func(p *packet.Packet) {
			if rcv := receivers[p.Flow]; rcv != nil {
				rcv.OnDataRef(p)
			}
		}
		toSender = func(p *packet.Packet) {
			if snd := senders[p.Flow]; snd != nil {
				snd.OnAckRef(p)
			}
		}
	}
	if r.aud != nil {
		inner := toReceiver
		toReceiver = func(p *packet.Packet) {
			r.arrivedWire += p.WireBytes()
			inner(p)
		}
	}
	fab.SetRefEndpoints(toReceiver, toSender)
	for _, s := range senders[:len(cfg.Flows)] {
		s.Start(r.rng.Dur(cfg.Stagger))
	}
	if cfg.Arrivals != nil {
		r.startArrivals()
	}
}

// connect builds the endpoints of one connection on flow ID id: a
// persistent flow (transfer 0) or one incarnation of a transfer slot.
func (r *run) connect(id int32, ctrl cca.CCA, transfer units.ByteCount, onComplete func()) {
	cfg, aud, coll := &r.cfg, r.aud, r.coll
	// Telemetry observes outermost so the audit wrapper keeps its direct
	// view of the controller's checking interfaces; the observer walks
	// the Unwrap chain to find the state machine.
	wrapped := telemetry.WrapCCA(audit.WrapCCA(ctrl, cfg.MSS, id, aud), id, coll)
	r.senders[id] = tcp.NewSender(r.eng, id, tcp.Config{
		MSS:           cfg.MSS,
		CCA:           wrapped,
		OutputRef:     r.output,
		TransferBytes: transfer,
		OnComplete:    onComplete,
		ECN:           r.ecn,
		Audit:         aud,
		Telemetry:     coll,
	})
	r.receivers[id] = tcp.NewReceiver(r.eng, id, tcp.ReceiverConfig{
		DelAckDelay: cfg.DelAckDelay,
		GROWindow:   cfg.GROWindow,
		Audit:       aud,
	}, r.fab.SendAck)
}

// instrument attaches everything that measures or supervises the run:
// the goodput series, the warm-up snapshot, the convergence rule and the
// interrupt hook.
func (r *run) instrument() {
	cfg, eng := &r.cfg, r.eng
	if cfg.SeriesInterval > 0 {
		r.startSeries()
	}

	// Warm-up boundary snapshot.
	r.snaps = make([]flowSnap, len(cfg.Flows))
	eng.Schedule(cfg.Warmup, func() {
		for i := range r.snaps {
			r.snaps[i] = snapshot(r.senders[i], r.receivers[i], r.qlog, int32(i))
		}
	})

	if cfg.Converge > 0 {
		r.watchConvergence()
	}

	// Watchdogs, budget enforcement, cancellation, and telemetry
	// sampling share the engine's interrupt hook: a wall-clock limit, a
	// virtual-time progress guard, ctx polling, and — when a budget is
	// set — periodic in-flight resource checks that convert breaches
	// into replayable errors carrying a checkpoint. The hook is
	// installed only when something is configured, so an unbudgeted,
	// unguarded, uninstrumented run keeps an untouched hot path.
	if cfg.WallLimit > 0 || cfg.StallEvents > 0 || !cfg.Budget.Unlimited() || r.coll != nil || r.done != nil {
		const wallCheckEvery = 1 << 13
		every := uint64(wallCheckEvery)
		if cfg.StallEvents > 0 && cfg.StallEvents < every {
			every = cfg.StallEvents
		}
		eng.SetInterrupt(every, r.supervise)
	}
}

// startSeries samples per-CCA aggregate goodput. The sample buffer is
// reused across ticks (the series copies what it retains) and the
// retained points are preallocated from the horizon, so sampling stays
// off the allocator for the whole run.
func (r *run) startSeries() {
	cfg, receivers := &r.cfg, r.receivers
	seen := map[string]int{}
	for _, f := range cfg.Flows {
		if _, ok := seen[f.CCA]; !ok {
			seen[f.CCA] = len(r.seriesNames)
			r.seriesNames = append(r.seriesNames, f.CCA)
		}
	}
	sample := make([]units.ByteCount, len(r.seriesNames))
	r.series = trace.NewThroughputSeries(r.eng, cfg.SeriesInterval, r.seriesNames,
		func() []units.ByteCount {
			for i := range sample {
				sample[i] = 0
			}
			for i, f := range cfg.Flows {
				sample[seen[f.CCA]] += receivers[i].Stats().Delivered
			}
			return sample
		}, true, nil)
	r.series.Preallocate(r.end)
	r.series.Start(0)
}

// watchConvergence schedules the paper's early-stop rule on aggregate
// goodput.
func (r *run) watchConvergence() {
	cfg, eng := &r.cfg, r.eng
	var prevRate float64
	var prevDelivered units.ByteCount
	var check func()
	check = func() {
		var total units.ByteCount
		for _, rcv := range r.receivers[:len(cfg.Flows)] {
			total += rcv.Stats().Delivered
		}
		rate := float64(total-prevDelivered) / cfg.Converge.Seconds()
		if prevRate > 0 {
			diff := rate - prevRate
			if diff < 0 {
				diff = -diff
			}
			if diff/prevRate < cfg.ConvergeTolerance {
				r.converged = true
				eng.Stop()
				return
			}
		}
		prevRate = rate
		prevDelivered = total
		if eng.Now()+cfg.Converge <= r.end {
			eng.After(cfg.Converge, check)
		}
	}
	eng.Schedule(cfg.Warmup+cfg.Converge, check)
}

// stopBudget stops the run on an in-flight budget breach, recording the
// checkpoint the error will carry.
func (r *run) stopBudget(kind budget.Kind, limit, observed int64, detail string) {
	r.watchdogReason = "budget breach"
	r.breach = &budget.BudgetError{
		Kind: kind, Stage: budget.StageInFlight,
		Limit: limit, Observed: observed, Detail: detail,
		Checkpoint: &budget.Checkpoint{
			VirtualTime: r.eng.Now(),
			Events:      r.eng.Processed(),
			Wall:        time.Since(r.wallStart),
		},
	}
	r.eng.Stop()
}

// reasonCanceled opens the Reason of a run its context stopped; the
// cause follows after a colon.
const reasonCanceled = "run canceled"

// Canceled reports whether the run was stopped by its context — a
// caller giving up, not the simulation failing.
func (e *RunError) Canceled() bool {
	return strings.HasPrefix(e.Reason, reasonCanceled)
}

// supervise is the engine's interrupt hook.
func (r *run) supervise() {
	cfg, eng, bud := &r.cfg, r.eng, r.cfg.Budget
	// Telemetry sampling: the queue high-water mark is emitted on every
	// new peak, engine progress about once per virtual second. Both are
	// pure observations of already-committed state.
	if r.coll != nil {
		if peak, n := r.fab.QueuePeak(); peak > r.lastPeakBytes {
			r.lastPeakBytes = peak
			r.coll.Emit(telemetry.Event{
				Time: eng.Now(), Kind: telemetry.KindQueueWatermark,
				Flow: -1, A: int64(peak), B: int64(n),
			})
		}
		if now := eng.Now(); now >= r.nextSample {
			r.nextSample = now + sim.Second
			r.coll.Emit(telemetry.Event{
				Time: now, Kind: telemetry.KindEngineSample,
				Flow: -1, A: int64(eng.Processed()), B: int64(eng.Len()),
			})
		}
	}
	if r.watchdogReason != "" {
		return
	}
	// The wall limit is tested before the context: RunCtx clamps it under
	// a context deadline, and when one interrupt interval spans both
	// instants the stop must still read as the retryable wall-clock one.
	// A context cancelled before its deadline finds the limit unspent.
	if cfg.WallLimit > 0 && time.Since(r.wallStart) > cfg.WallLimit {
		r.watchdogReason = fmt.Sprintf("wall-clock limit exceeded (%v)", cfg.WallLimit)
		eng.Stop()
		return
	}
	if r.done != nil {
		select {
		case <-r.done:
			r.watchdogReason = fmt.Sprintf("%s: %v", reasonCanceled, context.Cause(r.ctx))
			eng.Stop()
			return
		default:
		}
	}
	if cfg.StallEvents > 0 {
		if eng.Now() > r.lastNow {
			r.lastNow = eng.Now()
			r.lastAdvance = eng.Processed()
		} else if eng.Processed()-r.lastAdvance >= cfg.StallEvents {
			r.watchdogReason = fmt.Sprintf("virtual-time stall (%d events at %v)",
				eng.Processed()-r.lastAdvance, eng.Now())
			eng.Stop()
			return
		}
	}
	if bud.Unlimited() {
		return
	}
	r.ticks++
	if c := eng.Cap(); c > r.peakEventCap {
		r.peakEventCap = c
	}
	if bud.Events > 0 && int64(eng.Cap()) > bud.Events {
		r.stopBudget(budget.KindEvents, bud.Events, int64(eng.Cap()),
			"event slots held: heap nodes + entries parked in lanes")
		return
	}
	if bud.Wall > 0 && time.Since(r.wallStart) > bud.Wall {
		r.stopBudget(budget.KindWallClock, int64(bud.Wall), int64(time.Since(r.wallStart)), "")
		return
	}
	// ReadMemStats stops the world, so the heap ceiling is
	// sampled at a fraction of the interrupt cadence. The check
	// is process-wide: under a parallel sweep it is a shared
	// ceiling, and whichever run observes the breach stops first.
	if bud.HeapBytes > 0 && r.ticks%16 == 1 {
		runtime.ReadMemStats(&r.mem)
		if h := int64(r.mem.HeapAlloc); h > r.peakHeap {
			r.peakHeap = h
		}
		if int64(r.mem.HeapAlloc) > bud.HeapBytes {
			r.stopBudget(budget.KindHeapBytes, bud.HeapBytes, int64(r.mem.HeapAlloc),
				"sampled process heap (shared across parallel runs)")
		}
	}
}

// tracePoints counts the retained drop timestamps and series samples.
func (r *run) tracePoints() int64 {
	pts := int64(r.qlog.TimesLen())
	if r.series != nil {
		pts += int64(len(r.series.Points()) * len(r.seriesNames))
	}
	return pts
}

// finish closes the audit ledgers and assembles the result of a run the
// engine stopped at stopAt.
func (r *run) finish(stopAt sim.Time) (RunResult, error) {
	cfg, eng, fab, coll := r.cfg, r.eng, r.fab, r.coll
	if r.aud != nil && r.watchdogReason == "" {
		r.checkEndToEnd()
	}
	if r.watchdogReason != "" {
		return RunResult{}, &RunError{
			Reason:      r.watchdogReason,
			Seed:        cfg.Seed,
			VirtualTime: eng.Now(),
			Events:      eng.Processed(),
			Wall:        time.Since(r.wallStart),
			Budget:      r.breach,
			Config:      cfg,
		}
	}
	window := stopAt - cfg.Warmup
	if window <= 0 {
		return RunResult{}, fmt.Errorf("core: run ended before warm-up completed")
	}

	res := RunResult{
		Config:      cfg,
		Window:      window,
		Converged:   r.converged,
		Utilization: fab.Port().Utilization(),
		Events:      eng.Processed(),
	}
	for i := range cfg.Flows {
		fr := flowResult(cfg, r.senders[i], r.receivers[i], r.qlog, int32(i), r.snaps[i], window)
		res.Flows = append(res.Flows, fr)
		res.AggregateGoodput += fr.Goodput
		res.TotalDrops += fr.Drops
		if coll != nil {
			coll.Emit(telemetry.Event{
				Time: stopAt, Kind: telemetry.KindFlowEnd,
				Flow: int32(i), CCA: fr.Spec.CCA,
				A: int64(fr.Goodput), B: int64(fr.Drops),
			})
		}
	}
	res.DropBurstiness = metrics.BurstinessOfGaps(r.qlog.EachGap)
	if r.arrivals != nil {
		r.arrivals.Drops = r.qlog.Total()
		res.Arrivals = r.arrivals
	}
	if r.aud != nil {
		res.AuditViolations = r.aud.Total()
		res.AuditViolationSample = r.aud.Violations()
	}
	res.Usage = budget.Usage{
		Runs:          1,
		Events:        eng.Processed(),
		PeakEventCap:  int64(max(r.peakEventCap, eng.Cap())),
		TracePoints:   r.tracePoints(),
		PeakHeapBytes: r.peakHeap,
		Wall:          time.Since(r.wallStart),
	}
	if r.series != nil {
		res.SeriesNames = r.seriesNames
		res.Series = r.series.Points()
	}
	peakBytes, peakPackets := fab.QueuePeak()
	res.Usage.PeakQueueBytes = int64(peakBytes)
	res.Usage.PeakQueuePackets = int64(peakPackets)
	// Per-link counters: the result retains the list for declared
	// topologies (the dumbbell's single bottleneck is already covered by
	// the top-level fields) and the fabric-wide CE mark and stage drop
	// counts either way.
	linkStats := fab.LinkStats()
	for _, l := range linkStats {
		res.CEMarks += l.CEMarks
		res.RandomDrops += l.RandomDrops
		res.BurstDrops += l.BurstDrops
		res.OutageDrops += l.OutageDrops
	}
	if cfg.Topology != nil {
		res.Links = linkStats
	}
	if coll != nil {
		coll.Emit(telemetry.Event{
			Time: stopAt, Kind: telemetry.KindRunEnd, Flow: -1,
			A: int64(eng.Processed()), B: int64(res.AggregateGoodput),
		})
	}
	return res, nil
}

// checkEndToEnd verifies the end-of-run byte-conservation ledgers for
// the forward data path. The byte ledger: every wire byte the senders
// injected is accounted for as arrived at the receiving side, dropped
// inside the fabric (queues, AQM, link impairment stages), or still
// inside it (queued, serializing, in propagation flight, parked in a
// jitter timer or held by an outage) — the fabric owns all of those
// terms. The ECN ledger: every wire byte CE-marked by a fabric queue is
// delivered, dropped after marking, or still inside the fabric — marks
// never vanish and never multiply.
func (r *run) checkEndToEnd() {
	injected, arrived := r.injectedWire, r.arrivedWire
	inNetwork, fabricDropped := r.fab.InNetworkBytes(), r.fab.DropWire()
	accounted := arrived + fabricDropped + inNetwork
	if injected != accounted {
		r.aud.Reportf("netem/end-to-end-conservation", -1,
			"at run end: injected %d wire bytes != arrived %d + fabric dropped %d + in network %d (missing %d)",
			injected, arrived, fabricDropped, inNetwork,
			int64(injected)-int64(accounted))
	}
	marked, delivered, dropped, ceInNetwork := r.fab.ECNLedger()
	ceAccounted := delivered + dropped + ceInNetwork
	if marked != ceAccounted {
		r.aud.Reportf("netem/ecn-conservation", -1,
			"at run end: CE-marked %d wire bytes != delivered %d + dropped after mark %d + in network %d (missing %d)",
			marked, delivered, dropped, ceInNetwork,
			int64(marked)-int64(ceAccounted))
	}
}

func snapshot(s *tcp.Sender, r *tcp.Receiver, qlog *trace.QueueLog, flow int32) flowSnap {
	st := s.Stats()
	return flowSnap{
		delivered:   r.Stats().Delivered,
		sent:        st.SegmentsSent,
		retrans:     st.Retransmissions,
		recoveries:  st.FastRecoveries,
		rtos:        st.RTOs,
		drops:       qlog.Flow(flow),
		rttSum:      st.MeanRTT * sim.Time(st.RTTSamples),
		rttCount:    st.RTTSamples,
		deliveredTx: st.DeliveredBytes,
		ecnResps:    st.ECNResponses,
	}
}

func flowResult(cfg RunConfig, s *tcp.Sender, r *tcp.Receiver, qlog *trace.QueueLog, flow int32, snap flowSnap, window sim.Time) FlowResult {
	st := s.Stats()
	fr := FlowResult{
		Spec:            cfg.Flows[flow],
		SegmentsSent:    st.SegmentsSent - snap.sent,
		Retransmissions: st.Retransmissions - snap.retrans,
		FastRecoveries:  st.FastRecoveries - snap.recoveries,
		RTOs:            st.RTOs - snap.rtos,
		Drops:           qlog.Flow(flow) - snap.drops,
		MinRTT:          st.MinRTT,
		ECNResponses:    st.ECNResponses - snap.ecnResps,
	}
	fr.Halvings = fr.FastRecoveries + fr.RTOs
	deliveredWindow := r.Stats().Delivered - snap.delivered
	fr.Goodput = units.Throughput(deliveredWindow, window)
	deliveredTxWindow := st.DeliveredBytes - snap.deliveredTx
	fr.SegmentsDelivered = uint64(deliveredTxWindow / cfg.MSS)
	if fr.SegmentsSent > 0 {
		fr.LossRate = float64(fr.Drops) / float64(fr.SegmentsSent)
	}
	if fr.SegmentsDelivered > 0 {
		fr.HalvingRate = float64(fr.Halvings) / float64(fr.SegmentsDelivered)
	}
	if n := st.RTTSamples - snap.rttCount; n > 0 {
		fr.MeanRTT = (st.MeanRTT*sim.Time(st.RTTSamples) - snap.rttSum) / sim.Time(n)
	}
	return fr
}

// Goodputs extracts per-flow goodputs as floats (for JFI and shares).
func (r RunResult) Goodputs() []float64 {
	out := make([]float64, len(r.Flows))
	for i, f := range r.Flows {
		out[i] = float64(f.Goodput)
	}
	return out
}

// JFI returns Jain's Fairness Index over the run's per-flow goodputs.
func (r RunResult) JFI() float64 { return metrics.JFI(r.Goodputs()) }

// ShareByCCA returns each CCA's fraction of aggregate goodput.
func (r RunResult) ShareByCCA() map[string]float64 {
	totals := map[string]float64{}
	var sum float64
	for _, f := range r.Flows {
		totals[f.Spec.CCA] += float64(f.Goodput)
		sum += float64(f.Goodput)
	}
	if sum == 0 {
		return totals
	}
	for k := range totals {
		totals[k] /= sum
	}
	return totals
}

// UniformFlows builds n flows of the same CCA and RTT.
func UniformFlows(n int, ccaName string, rtt sim.Time) []FlowSpec {
	out := make([]FlowSpec, n)
	for i := range out {
		out[i] = FlowSpec{CCA: ccaName, RTT: rtt}
	}
	return out
}

// MixedFlows builds a 50/50 interleaved mix of two CCAs at one RTT
// (odd totals give the extra flow to the first CCA).
func MixedFlows(n int, ccaA, ccaB string, rtt sim.Time) []FlowSpec {
	out := make([]FlowSpec, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = FlowSpec{CCA: ccaA, RTT: rtt}
		} else {
			out[i] = FlowSpec{CCA: ccaB, RTT: rtt}
		}
	}
	return out
}

// OneVersusFlows builds one flow of loner plus n−1 flows of crowd.
func OneVersusFlows(n int, loner, crowd string, rtt sim.Time) []FlowSpec {
	out := make([]FlowSpec, 0, n)
	out = append(out, FlowSpec{CCA: loner, RTT: rtt})
	for i := 1; i < n; i++ {
		out = append(out, FlowSpec{CCA: crowd, RTT: rtt})
	}
	return out
}
