// Command fprint emits a deterministic fingerprint of simulation
// behavior across CCAs, seeds, and impairment configurations. It exists
// to verify bit-identity of hot-path optimizations: run it before and
// after a change and diff the output.
//
// Two auxiliary modes ride along:
//
//	fprint -telemetry      attach a full telemetry pipeline (collector,
//	                       registry, JSONL serialization to /dev/null) to
//	                       every run; stdout must stay byte-identical to
//	                       a plain run — the observability-never-perturbs
//	                       guarantee, checked in CI by diffing the two.
//	fprint -check FILE     validate a result artifact (JSON table or
//	                       telemetry JSONL stream) against this build's
//	                       result schema, rejecting unknown major
//	                       versions with a clear error.
//	fprint -store DIR      fingerprint a sweep's content-addressed
//	                       result store: one sha256 over every record's
//	                       key and CRC-verified payload, in key order.
//	                       Two stores fingerprint equal iff they hold
//	                       byte-identical results — the check the CI
//	                       serve smoke uses to prove fleet and
//	                       in-process ccserve stores identical.
//	fprint -viascenario    rebuild every base-matrix config through a
//	                       scenario document (encode → parse → compile)
//	                       before running it; the output must be a
//	                       byte-identical prefix of a plain run — the
//	                       declarative API introduces no drift.
package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"

	"ccatscale/internal/core"
	"ccatscale/internal/netem"
	"ccatscale/internal/report"
	"ccatscale/internal/schema"
	"ccatscale/internal/sim"
	"ccatscale/internal/store"
	"ccatscale/internal/telemetry"
	"ccatscale/internal/units"
)

func main() {
	withTelemetry := flag.Bool("telemetry", false, "attach a telemetry collector to every run (output must not change)")
	checkFile := flag.String("check", "", "validate a JSON table or telemetry JSONL file against the result schema and exit")
	storeDir := flag.String("store", "", "fingerprint the content-addressed result store in this directory and exit")
	viaScenario := flag.Bool("viascenario", false, "build the base matrix through scenario documents (output must equal a plain run's base matrix)")
	flag.Parse()

	if *checkFile != "" {
		if err := checkArtifact(*checkFile); err != nil {
			fmt.Fprintf(os.Stderr, "fprint: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *storeDir != "" {
		if err := fingerprintStore(*storeDir); err != nil {
			fmt.Fprintf(os.Stderr, "fprint: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var coll telemetry.Collector
	var stream *telemetry.Stream
	reg := telemetry.NewRegistry()
	if *withTelemetry {
		var err error
		stream, err = telemetry.NewStream(io.Discard, "fprint")
		if err != nil {
			fmt.Fprintf(os.Stderr, "fprint: %v\n", err)
			os.Exit(1)
		}
		coll = telemetry.Multi(stream.Collector("fprint"), reg.Instrument())
	}
	fingerprint(os.Stdout, coll, *viaScenario)
	if *withTelemetry {
		if err := stream.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "fprint: telemetry stream: %v\n", err)
			os.Exit(1)
		}
		// Stderr only: the stdout fingerprint must stay byte-identical.
		snap := reg.Snapshot()
		fmt.Fprintf(os.Stderr, "telemetry: %d events across %d runs\n",
			totalEvents(snap), snap.Counters["runs_ended"])
	}
}

// checkArtifact validates a result artifact's schema version. The file
// kind is sniffed: telemetry JSONL streams start with a header record
// carrying "k":"header"; anything else is treated as a JSON table.
func checkArtifact(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if bytes.Contains(firstLine(data), []byte(`"k":"header"`)) {
		n := 0
		if err := telemetry.ParseStream(bytes.NewReader(data), func(telemetry.StreamRecord) error {
			n++
			return nil
		}); err != nil {
			return err
		}
		fmt.Printf("%s: telemetry stream ok (%d records)\n", path, n)
		return nil
	}
	t, err := report.ReadJSON(bytes.NewReader(data))
	if err != nil {
		return err
	}
	fmt.Printf("%s: table ok (%d columns, %d rows)\n", path, len(t.Headers), len(t.Rows))
	return nil
}

// fingerprintStore prints one line per store record (key and payload
// digest) and a final combined fingerprint over all of them in key
// order. Get verifies each record's CRC frame, so a torn or bit-rotted
// record fails the fingerprint loudly instead of hashing garbage.
func fingerprintStore(dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	keys, err := st.Keys()
	if err != nil {
		return err
	}
	all := sha256.New()
	for _, key := range keys {
		payload, err := st.Get(key)
		if err != nil {
			return fmt.Errorf("record %s: %w", key, err)
		}
		sum := sha256.Sum256(payload)
		fmt.Printf("%s: sha256=%x bytes=%d\n", key, sum, len(payload))
		fmt.Fprintf(all, "%s %x\n", key, sum)
	}
	fmt.Printf("store: records=%d fingerprint=%x\n", len(keys), all.Sum(nil))
	return nil
}

func firstLine(data []byte) []byte {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return data[:i]
	}
	return data
}

// scenarioEquivalent re-expresses one base-matrix config as a scenario
// document and compiles it back through the full declarative path —
// Encode, ParseScenario, NewScenarioBuilder, RunConfig — returning the
// config that path would run. Any drift between this and the direct
// construction shows up as a fingerprint diff.
func scenarioEquivalent(cfg core.RunConfig, cca string, seed uint64, coll telemetry.Collector) (core.RunConfig, error) {
	doc := schema.Scenario{
		JobSpec: schema.JobSpec{
			Name:        "fprint",
			Seed:        seed,
			RateMbps:    float64(cfg.Rate) / float64(units.MbitPerSec),
			BufferBytes: int64(cfg.Buffer),
			Flows:       []schema.FlowGroup{{CCA: cca, RTTMs: 20, Count: 4}},
			WarmupS:     float64(cfg.Warmup) / float64(sim.Second),
			DurationS:   float64(cfg.Duration) / float64(sim.Second),
			StaggerS:    float64(cfg.Stagger) / float64(sim.Second),
		},
		SeriesIntervalS: float64(cfg.SeriesInterval) / float64(sim.Second),
	}
	data, err := doc.Encode()
	if err != nil {
		return core.RunConfig{}, err
	}
	parsed, err := schema.ParseScenario(data)
	if err != nil {
		return core.RunConfig{}, err
	}
	b, err := core.NewScenarioBuilder(parsed)
	if err != nil {
		return core.RunConfig{}, err
	}
	return b.RunConfig(core.WithRunCollector(coll)), nil
}

func totalEvents(snap telemetry.Snapshot) int64 {
	var total int64
	for name, v := range snap.Counters {
		if len(name) > len("telemetry_events_total/") && name[:len("telemetry_events_total/")] == "telemetry_events_total/" {
			total += v
		}
	}
	return total
}

// fingerprint runs the fixed experiment matrix and writes the
// deterministic result lines to w. coll, when non-nil, is attached to
// every run; it must not change a single printed byte. viaScenario rebuilds
// each base-matrix config from a scenario document — encode, parse,
// compile — instead of constructing the RunConfig directly; the base
// matrix must print byte-identically either way, and the variants (not
// expressible as scenarios) are skipped.
func fingerprint(w io.Writer, coll telemetry.Collector, viaScenario bool) {
	ccas := []string{"reno", "cubic", "cubic-nohystart", "bbr", "bbr2"}
	for _, cca := range ccas {
		for _, seed := range []uint64{1, 7, 42} {
			cfg := core.RunConfig{
				Rate:           50 * units.MbitPerSec,
				Buffer:         units.BDP(50*units.MbitPerSec, 40*sim.Millisecond),
				Flows:          core.UniformFlows(4, cca, 20*sim.Millisecond),
				Warmup:         2 * sim.Second,
				Duration:       8 * sim.Second,
				Stagger:        sim.Second,
				Seed:           seed,
				SeriesInterval: 500 * sim.Millisecond,
				Collector:      coll,
			}
			if viaScenario {
				var err error
				cfg, err = scenarioEquivalent(cfg, cca, seed, coll)
				if err != nil {
					fmt.Fprintf(w, "%s/%d: ERR %v\n", cca, seed, err)
					continue
				}
			}
			res, err := core.Run(cfg)
			if err != nil {
				fmt.Fprintf(w, "%s/%d: ERR %v\n", cca, seed, err)
				continue
			}
			fmt.Fprintf(w, "%s/%d: events=%d drops=%d agg=%d util=%.12f burst=%.12f\n",
				cca, seed, res.Events, res.TotalDrops, int64(res.AggregateGoodput), res.Utilization, res.DropBurstiness)
			printFlows(w, res)
			for _, pt := range res.Series {
				fmt.Fprintf(w, "  s %d %v\n", int64(pt.At), pt.Rates)
			}
		}
	}
	if viaScenario {
		return
	}
	// Impairment paths, then arrivals and a per-link stage. Append new
	// variants: the golden's existing lines must stay a prefix.
	variants := []struct {
		name string
		mut  func(*core.RunConfig)
	}{
		{"jitter", func(c *core.RunConfig) { c.Jitter = 2 * sim.Millisecond; c.RandomLoss = 0.001 }},
		{"burst", func(c *core.RunConfig) { c.BurstLoss = &core.BurstLossSpec{MeanLoss: 0.005, MeanBurstLen: 4} }},
		{"outage", func(c *core.RunConfig) {
			c.Outage = &core.OutageSpec{Start: 3 * sim.Second, Down: 300 * sim.Millisecond, Period: 2 * sim.Second, Count: 2}
		}},
		{"codel", func(c *core.RunConfig) { c.AQM = "codel" }},
		{"strict", func(c *core.RunConfig) { c.Audit = "strict" }},
		// Few enough slots that arrivals are rejected and slots reused.
		{"arrivals", func(c *core.RunConfig) {
			c.Arrivals = &core.ArrivalSpec{CCA: "reno", RTT: 20 * sim.Millisecond, PerSecond: 20,
				TransferBytes: 200 * units.KB, MaxFlows: 8, Drain: 2 * sim.Second}
		}},
		// Burst loss as the second link's stage; the last flow never meets it.
		{"twolink", func(c *core.RunConfig) {
			c.Topology = &netem.TopologySpec{
				Nodes: []string{"a", "b", "c"},
				Links: []netem.LinkSpec{
					{Name: "ab", From: "a", To: "b", Rate: c.Rate, Delay: sim.Millisecond, Buffer: c.Buffer},
					{Name: "bc", From: "b", To: "c", Rate: c.Rate * 4 / 5, Delay: sim.Millisecond, Buffer: c.Buffer,
						BurstLoss: &netem.BurstLossSpec{MeanLoss: 0.005, MeanBurstLen: 4}},
				},
				Paths: [][]int{{0, 1}, {0, 1}, {0, 1}, {0}},
			}
		}},
	}
	for _, v := range variants {
		cfg := core.RunConfig{
			Rate:      50 * units.MbitPerSec,
			Buffer:    units.BDP(50*units.MbitPerSec, 40*sim.Millisecond),
			Flows:     core.MixedFlows(4, "cubic", "bbr", 20*sim.Millisecond),
			Warmup:    2 * sim.Second,
			Duration:  8 * sim.Second,
			Stagger:   sim.Second,
			Seed:      42,
			Collector: coll,
		}
		v.mut(&cfg)
		res, err := core.Run(cfg)
		if err != nil {
			fmt.Fprintf(w, "%s: ERR %v\n", v.name, err)
			continue
		}
		fmt.Fprintf(w, "%s: events=%d drops=%d rnd=%d burst=%d out=%d agg=%d util=%.12f\n",
			v.name, res.Events, res.TotalDrops, res.RandomDrops, res.BurstDrops, res.OutageDrops,
			int64(res.AggregateGoodput), res.Utilization)
		printFlows(w, res)
		if a := res.Arrivals; a != nil {
			fmt.Fprintf(w, "  a arrived=%d rejected=%d completed=%d drops=%d meanFCT=%.12f p99FCT=%.12f\n",
				a.Arrived, a.Rejected, a.Completed, a.Drops, a.MeanFCT(), a.FCTQuantile(0.99))
		}
		for _, l := range res.Links {
			fmt.Fprintf(w, "  l %s tx=%d dropWire=%d rnd=%d burst=%d out=%d\n",
				l.Name, l.TxPackets, int64(l.DropWire), l.RandomDrops, l.BurstDrops, l.OutageDrops)
		}
	}
}

func printFlows(w io.Writer, res core.RunResult) {
	for i, f := range res.Flows {
		fmt.Fprintf(w, "  f%d sent=%d rtx=%d fr=%d rto=%d good=%d meanRTT=%d drops=%d\n",
			i, f.SegmentsSent, f.Retransmissions, f.FastRecoveries, f.RTOs, int64(f.Goodput), int64(f.MeanRTT), f.Drops)
	}
}
