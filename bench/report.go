package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef names a metric and its unit. BENCHMARK.json carries the
// same names with direction and bound; the tests keep the two in step.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a user of the system sees, the same four on
// every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_norm_p50_ms", "ms"},
	{"work_norm_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics is the ladder: one or more numbers per module, each
// measured from this directory through the module's public functions.
// README.md says which end-to-end metric each should move and where.
var perLayerMetrics = []metricDef{
	{"sim.ns_per_event_deep", "ns"},
	{"sim.ns_per_event_shallow", "ns"},
	{"sim.ns_per_timer_reset", "ns"},
	{"packet.struct_bytes", "count"},
	{"netem.ns_per_pkt_port", "ns"},
	{"netem.ns_per_pkt_dumbbell", "ns"},
	{"netem.ns_per_pkt_topo1", "ns"},
	{"netem.ns_per_pkt_topo3", "ns"},
	{"netem.drops_per_op", "count"},
	{"netem.ce_marks_per_op", "count"},
	{"tcp.ns_per_ack.reno", "ns"},
	{"tcp.ns_per_ack.cubic", "ns"},
	{"tcp.ns_per_ack.bbr", "ns"},
	{"tcp.ns_per_ack.bbr2", "ns"},
	{"tcp.ns_per_seg_ooo64", "ns"},
	{"tcp.ns_per_seg_ooo512", "ns"},
	{"tcp.ns_per_ack_sack", "ns"},
	{"tcp.retrans_share", "count"},
	{"cca.ns_per_onack.reno", "ns"},
	{"cca.ns_per_onack.cubic", "ns"},
	{"cca.ns_per_onack.bbr", "ns"},
	{"cca.ns_per_onack.bbr2", "ns"},
	{"core.events_per_op", "count"},
	{"core.ns_per_event", "ns"},
	{"core.allocs_per_op", "count"},
	{"core.alloc_mb_per_op", "MB"},
	{"core.gc_cycles_per_op", "count"},
	{"core.peak_event_cap", "count"},
	{"schema.parse_compile_us", "us"},
	{"budget.est_events_ratio", "count"},
	{"budget.est_heap_ratio", "count"},
	{"budget.est_wall_ratio", "count"},
	{"store.put_ms_p50", "ms"},
	{"store.get_us_p50", "us"},
	{"store.journal_append_ms_p50", "ms"},
	{"store.lease_cycle_ms_p50", "ms"},
	{"ccserve.submit_ms_p50", "ms"},
	{"ccserve.run_wall_ms_p50", "ms"},
	{"ccserve.overhead_ms_p50", "ms"},
	{"ccserve.job_tail_ms", "ms"},
	{"ccserve.resubmit_ms_p50", "ms"},
	{"ccserve.spawns_per_job", "count"},
	{"ccserve.inprocess_job_ms_p50", "ms"},
	{"ccserve.refused_share", "count"},
	{"host.factor_p50", "count"},
	{"host.factor_iqr", "count"},
	{"trace.overhead_pct", "%"},
}

// maxOpLines is the most ops a report lists one by one: the in-process
// windows (a dozen ops) are listed, the serving window (thousands) is
// not.
const maxOpLines = 64

// noisyHostIQR is the interquartile range of the per-op host factor
// above which the run flags the host as too noisy to trust.
const noisyHostIQR = 0.25

// runReport is everything one run measured.
type runReport struct {
	workload string

	// Set-up: every repetition's time in seconds, raw and divided by
	// the host factor of the burst it ran in.
	setupRaw  []float64
	setupNorm []float64

	// The timed window.
	ops []opSample
	// attemptedExtra counts attempted ops that are not in ops: the
	// traced run's serving phases and in-process twin.
	attemptedExtra int
	failed         int
	complaints     []string // first few reasons ops failed
	fingerprint    string
	// normWorkPerS overrides the default events ÷ Σ normalised op time
	// (the serving workload computes it per rendezvous segment).
	normWorkPerS float64
	rawWorkPerS  float64
	peakRSSMB    float64

	// info is extra named values for the human-readable block.
	info map[string]string
	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
}

// complain records a failed op's reason, keeping the first few.
func (r *runReport) complain(msg string) {
	r.failed++
	if len(r.complaints) < 5 {
		r.complaints = append(r.complaints, msg)
	}
}

// column extracts one value from every sample.
func column(ops []opSample, get func(opSample) float64) []float64 {
	xs := make([]float64, len(ops))
	for i, s := range ops {
		xs[i] = get(s)
	}
	return xs
}

func (r *runReport) column(get func(opSample) float64) []float64 { return column(r.ops, get) }

func (r *runReport) factors() []float64 {
	return r.column(func(s opSample) float64 { return s.factor })
}

// endToEnd computes the four end-to-end metrics. Work per second is
// the median of the ops' own rates, not total work over total time: a
// mean carries every contended op's tail into the result, and on a
// shared host the tail is the host's.
func (r *runReport) endToEnd() map[string]float64 {
	work := r.normWorkPerS
	if work == 0 {
		work = median(r.column(func(s opSample) float64 { return s.work / (s.normMs() / 1000) }))
	}
	return map[string]float64{
		"setup_s":         median(r.setupNorm),
		"op_norm_p50_ms":  median(r.column(opSample.normMs)),
		"work_norm_per_s": work,
		"peak_rss_mb":     r.peakRSSMB,
	}
}

// print writes the human-readable report: every metric by name with
// its unit, then the info block.
func (r *runReport) print(out io.Writer) {
	e2e := r.endToEnd()
	fmt.Fprintln(out, "## end-to-end")
	for _, m := range endToEndMetrics {
		fmt.Fprintf(out, "%-28s %16.6f %s\n", m.name, e2e[m.name], m.unit)
	}
	fmt.Fprintln(out, "## info")
	raw := r.column(func(s opSample) float64 { return s.rawMs })
	f := r.factors()
	q1, q3 := quartiles(f)
	rawWork := r.rawWorkPerS
	if rawWork == 0 {
		rawWork = median(r.column(func(s opSample) float64 { return s.work / (s.rawMs / 1000) }))
	}
	fmt.Fprintf(out, "%-28s %14d\n", "ops", len(r.ops))
	fmt.Fprintf(out, "%-28s %14d\n", "ops_failed", r.failed)
	fmt.Fprintf(out, "%-28s %14s\n", "fingerprint", r.fingerprint)
	fmt.Fprintf(out, "%-28s %16.6f ms\n", "raw_op_p50_ms", median(raw))
	fmt.Fprintf(out, "%-28s %16.6f 1/s\n", "raw_work_per_s", rawWork)
	fmt.Fprintf(out, "%-28s %16.6f s\n", "raw_setup_s", median(r.setupRaw))
	fmt.Fprintf(out, "%-28s %14d\n", "setup_reps", len(r.setupRaw))
	fmt.Fprintf(out, "%-28s %16.6f\n", "host_factor_p50", median(f))
	fmt.Fprintf(out, "%-28s %16.6f\n", "host_factor_iqr", q3-q1)
	fmt.Fprintf(out, "%-28s %14v\n", "noisy_host", q3-q1 > noisyHostIQR)
	keys := make([]string, 0, len(r.info))
	for k := range r.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "%-28s %14s\n", k, r.info[k])
	}
	for _, c := range r.complaints {
		fmt.Fprintf(out, "FAILED OP: %s\n", c)
	}
	if len(r.ops) <= maxOpLines {
		for i, s := range r.ops {
			fmt.Fprintf(out, "op %4d raw_ms=%10.3f host_factor=%.4f norm_ms=%10.3f peak_rss_mb=%.2f ok=%v\n", i, s.rawMs, s.factor, s.normMs(), s.peakRSSMB, s.ok)
		}
	}
	if r.layer != nil {
		fmt.Fprintln(out, "## per-layer")
		for _, m := range perLayerMetrics {
			fmt.Fprintf(out, "%-28s %16.6f %s\n", m.name, r.layer[m.name], m.unit)
		}
	}
}
