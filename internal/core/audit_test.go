package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ccatscale/internal/netem"
	"ccatscale/internal/sim"
	"ccatscale/internal/telemetry"
	"ccatscale/internal/units"
)

// auditedTinyConfig is a fast strict-audited run configuration.
func auditedTinyConfig(seed uint64) RunConfig {
	s := tinySetting()
	s.Warmup = 2 * sim.Second
	s.Duration = 8 * sim.Second
	cfg := s.Build(UniformFlows(4, "cubic", DefaultRTT), seed)
	cfg.Audit = "strict"
	return cfg
}

func TestValidationErrorsAreDescriptive(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*RunConfig)
		want string
	}{
		{"zero rate", func(c *RunConfig) { c.Rate = 0 }, "rate must be positive"},
		{"negative rate", func(c *RunConfig) { c.Rate = -units.MbitPerSec }, "rate must be positive"},
		{"zero buffer", func(c *RunConfig) { c.Buffer = 0 }, "queue capacity must be positive"},
		{"sub-frame buffer", func(c *RunConfig) { c.Buffer = 100 }, "cannot hold one full-size frame"},
		{"no flows", func(c *RunConfig) { c.Flows = nil }, "no flows"},
		{"bad RTT", func(c *RunConfig) { c.Flows[0].RTT = -sim.Second }, "non-positive base RTT"},
		{"bad policy", func(c *RunConfig) { c.Audit = "paranoid" }, "unknown policy"},
		{"drill without audit", func(c *RunConfig) { c.Audit = ""; c.AuditDrillAt = sim.Second }, "audit drill requires"},
		// The dumbbell's impairments are validated as its link's fields:
		// an out-of-range loss was a panic-shaped RunError whose replay
		// command omitted it, a negative jitter was silently ignored.
		{"random loss out of range", func(c *RunConfig) { c.RandomLoss = 1 }, `link "bottleneck" loss rate 1 outside [0, 1)`},
		{"negative jitter", func(c *RunConfig) { c.Jitter = -sim.Millisecond }, `link "bottleneck" has negative jitter`},
		{"burst loss out of range", func(c *RunConfig) { c.BurstLoss = &netem.BurstLossSpec{MeanLoss: 0.1} }, "burst mean length 0 below 1 packet"},
		{"empty outage", func(c *RunConfig) { c.Outage = &netem.OutageSpec{Count: 1} }, "outage down-time 0s not positive"},
		{"negative ecn threshold", func(c *RunConfig) { c.ECN, c.ECNMarkBytes = true, -5 }, "negative ECN marking threshold"},
		{"impairment beside a topology", func(c *RunConfig) {
			spec, _ := c.fabricSpec(c.rtts())
			c.Topology, c.RandomLoss = &spec, 0.01
		}, "set them per link"},
		{"arrivals beside a topology", func(c *RunConfig) {
			spec, _ := c.fabricSpec(c.rtts())
			c.Topology, c.Arrivals = &spec, churnBase(5).Arrivals
		}, "arrivals need the dumbbell"},
		{"arrivals: zero rate", func(c *RunConfig) { c.Arrivals = churnBase(0).Arrivals }, "positive arrival rate"},
		{"arrivals: zero size", func(c *RunConfig) {
			c.Arrivals = churnBase(5).Arrivals
			c.Arrivals.TransferBytes = 0
		}, "positive transfer size"},
		{"arrivals: unknown CCA", func(c *RunConfig) {
			c.Arrivals = churnBase(5).Arrivals
			c.Arrivals.CCA = "quic"
		}, `unknown CCA "quic"`},
		{"arrivals: zero RTT", func(c *RunConfig) {
			c.Arrivals = churnBase(5).Arrivals
			c.Arrivals.RTT = 0
		}, "non-positive base RTT"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := auditedTinyConfig(1)
			tc.mut(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("expected a validation error")
			}
			var re *RunError
			if errors.As(err, &re) {
				t.Fatalf("invalid input surfaced as a run failure, not a validation error: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestAuditDrillCaughtStrict is the acceptance drill: a corrupted queue
// byte-decrement must fail a strict run with a structured conservation
// violation whose failure record carries the audit policy and the drill.
func TestAuditDrillCaughtStrict(t *testing.T) {
	cfg := auditedTinyConfig(1)
	cfg.AuditDrillAt = 3 * sim.Second
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("strict run with corrupted queue accounting succeeded")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *RunError", err)
	}
	if re.Reason != "invariant violation" {
		t.Fatalf("Reason = %q", re.Reason)
	}
	if re.Violation == nil {
		t.Fatal("RunError carries no structured violation")
	}
	if !strings.HasPrefix(re.Violation.Check, "netem/") {
		t.Fatalf("violation %q not attributed to the netem ledger", re.Violation.Check)
	}
	if re.Violation.Time < cfg.AuditDrillAt {
		t.Fatalf("violation at %v, before the drill at %v", re.Violation.Time, cfg.AuditDrillAt)
	}
	if re.Config.Audit != "strict" || re.Config.AuditDrillAt != cfg.AuditDrillAt {
		t.Fatalf("failure record's config has audit %q, drill %v; want the run's", re.Config.Audit, re.Config.AuditDrillAt)
	}
}

// TestAuditDrillWarnCountsAndContinues checks the warn policy: the same
// corruption is counted (with a retained sample) but the run completes.
func TestAuditDrillWarnCountsAndContinues(t *testing.T) {
	cfg := auditedTinyConfig(1)
	cfg.Audit = "warn"
	cfg.AuditDrillAt = 3 * sim.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AuditViolations == 0 {
		t.Fatal("warn run reported no violations despite the drill")
	}
	if len(res.AuditViolationSample) == 0 {
		t.Fatal("no violation sample retained")
	}
	if got := res.AuditViolationSample[0].Check; !strings.HasPrefix(got, "netem/") {
		t.Fatalf("first violation %q not from the netem ledger", got)
	}
}

// TestInvariantFailureReplayRoundTrip serializes a strict audit failure
// through the JSON failure record and re-runs the decoded config: the
// replay must reproduce the identical violation — same check, same
// virtual time, same seed, same event count.
func TestInvariantFailureReplayRoundTrip(t *testing.T) {
	cfg := auditedTinyConfig(9)
	cfg.AuditDrillAt = 3 * sim.Second
	_, err := Run(cfg)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *RunError", err)
	}

	var buf bytes.Buffer
	if err := re.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadRunError(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Violation == nil || *decoded.Violation != *re.Violation {
		t.Fatalf("violation did not survive JSON: %+v vs %+v", decoded.Violation, re.Violation)
	}

	_, err = Run(decoded.Config)
	var replay *RunError
	if !errors.As(err, &replay) {
		t.Fatalf("replay error is %T, want *RunError", err)
	}
	if replay.Violation == nil || *replay.Violation != *re.Violation {
		t.Fatalf("replay violation differs: %+v vs %+v", replay.Violation, re.Violation)
	}
	if replay.Seed != re.Seed || replay.VirtualTime != re.VirtualTime || replay.Events != re.Events {
		t.Fatalf("replay context differs: seed %d/%d vt %v/%v events %d/%d",
			replay.Seed, re.Seed, replay.VirtualTime, re.VirtualTime, replay.Events, re.Events)
	}
}

// TestAuditCleanAcrossConfigurations runs the strict auditor over the
// harness's impairment axes — CoDel, iid loss, jitter, burst loss,
// outages (drop and hold), mixed CCAs — and requires a clean pass: the
// conservation ledgers must account for every path a byte can take.
func TestAuditCleanAcrossConfigurations(t *testing.T) {
	mut := []struct {
		name string
		mut  func(*RunConfig)
	}{
		{"codel", func(c *RunConfig) { c.AQM = "codel" }},
		{"iid loss", func(c *RunConfig) { c.RandomLoss = 0.01 }},
		{"jitter", func(c *RunConfig) { c.Jitter = 2 * sim.Millisecond }},
		{"burst loss", func(c *RunConfig) { c.BurstLoss = &netem.BurstLossSpec{MeanLoss: 0.005, MeanBurstLen: 4} }},
		{"outage drop", func(c *RunConfig) {
			c.Outage = &netem.OutageSpec{Start: 3 * sim.Second, Down: 200 * sim.Millisecond, Period: 2 * sim.Second, Count: 2}
		}},
		{"outage hold", func(c *RunConfig) {
			c.Outage = &netem.OutageSpec{Start: 3 * sim.Second, Down: 200 * sim.Millisecond, Period: 2 * sim.Second, Count: 2, Hold: true}
		}},
		{"mixed ccas", func(c *RunConfig) { c.Flows = MixedFlows(6, "bbr2", "reno", DefaultRTT) }},
		{"burst loss + outage drop", func(c *RunConfig) {
			c.BurstLoss = &netem.BurstLossSpec{MeanLoss: 0.005, MeanBurstLen: 4}
			c.Outage = &netem.OutageSpec{Start: 3 * sim.Second, Down: 200 * sim.Millisecond, Period: 2 * sim.Second, Count: 2}
		}},
		{"burst loss + outage hold + iid", func(c *RunConfig) {
			c.RandomLoss = 0.005
			c.BurstLoss = &netem.BurstLossSpec{MeanLoss: 0.005, MeanBurstLen: 4}
			c.Outage = &netem.OutageSpec{Start: 3 * sim.Second, Down: 200 * sim.Millisecond, Period: 2 * sim.Second, Count: 2, Hold: true}
		}},
		// CE-marked bytes dropped by, parked in and held by the stages:
		// the ECN ledger's dropped and in-network terms.
		{"ecn + every stage", func(c *RunConfig) {
			c.ECN, c.ECNMarkBytes = true, 3000
			c.RandomLoss, c.Jitter = 0.002, 200*sim.Microsecond // below the frame time: no reordering
			c.BurstLoss = &netem.BurstLossSpec{MeanLoss: 0.002, MeanBurstLen: 4}
			c.Outage = &netem.OutageSpec{Start: 3 * sim.Second, Down: 200 * sim.Millisecond, Period: 2 * sim.Second, Count: 3, Hold: true}
		}},
	}
	for _, tc := range mut {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := auditedTinyConfig(3)
			tc.mut(&cfg)
			if _, err := Run(cfg); err != nil {
				t.Fatalf("strict-audited run failed: %v", err)
			}
		})
	}
}

// TestComposedImpairmentsAuditBitIdentity runs the fully composed
// impairment chain — iid loss, Gilbert–Elliott burst loss, and link
// outages together — with the auditor off and with it strict, and
// requires bit-identical results. The auditor is an observer: turning
// it on must not consume randomness, reorder events, or perturb a
// single flow statistic, even with every forward-path impairment
// stacked. Nor may it hide anything from the observers beside it: the
// queue high-water marks and their telemetry events are read through
// the audit shadow around the queue and must come out the same.
func TestComposedImpairmentsAuditBitIdentity(t *testing.T) {
	plainColl, strictColl := newCountingCollector(), newCountingCollector()
	compose := func(audit string, coll telemetry.Collector) RunConfig {
		cfg := auditedTinyConfig(17)
		cfg.Audit = audit
		cfg.Collector = coll
		cfg.RandomLoss = 0.005
		cfg.BurstLoss = &netem.BurstLossSpec{MeanLoss: 0.01, MeanBurstLen: 4}
		cfg.Outage = &netem.OutageSpec{Start: 3 * sim.Second, Down: 200 * sim.Millisecond, Period: 2 * sim.Second, Count: 2, Hold: true}
		return cfg
	}
	plain, err := Run(compose("", plainColl))
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Run(compose("strict", strictColl))
	if err != nil {
		t.Fatalf("strict composed run failed: %v", err)
	}
	if !reflect.DeepEqual(plain.Flows, strict.Flows) {
		t.Fatal("strict auditing perturbed the composed run's flow results")
	}
	if plain.Events != strict.Events {
		t.Fatalf("event counts differ: plain %d, strict %d", plain.Events, strict.Events)
	}
	if plain.BurstDrops != strict.BurstDrops || plain.OutageDrops != strict.OutageDrops {
		t.Fatalf("drop ledgers differ: burst %d/%d outage %d/%d",
			plain.BurstDrops, strict.BurstDrops, plain.OutageDrops, strict.OutageDrops)
	}
	if strict.AuditViolations != 0 {
		t.Fatalf("composed chain raised %d audit violations", strict.AuditViolations)
	}
	if plain.Usage.PeakQueueBytes == 0 {
		t.Fatal("plain run reports no queue high-water mark")
	}
	if plain.Usage.PeakQueueBytes != strict.Usage.PeakQueueBytes ||
		plain.Usage.PeakQueuePackets != strict.Usage.PeakQueuePackets {
		t.Fatalf("queue high-water marks differ: plain %d B / %d pkts, strict %d B / %d pkts",
			plain.Usage.PeakQueueBytes, plain.Usage.PeakQueuePackets,
			strict.Usage.PeakQueueBytes, strict.Usage.PeakQueuePackets)
	}
	pw, sw := plainColl.counts[telemetry.KindQueueWatermark], strictColl.counts[telemetry.KindQueueWatermark]
	if pw == 0 || pw != sw {
		t.Fatalf("queue-watermark events: plain %d, strict %d; want equal and non-zero", pw, sw)
	}
}
