package main

import (
	"fmt"
	"net/http"
	"os"
	"time"

	"ccatscale/internal/budget"
	"ccatscale/internal/core"
	"ccatscale/internal/schema"
)

// The traced run. It is separate from the timed run, which carries no
// tracing at all: a few reference ops with tracing off, one op with
// every call into a layer wrapped in a span and a telemetry collector
// on core.Run, then the per-layer drivers, then a short serving
// ladder. Every run prints every per-layer metric: the drivers are the
// same on every workload, and the metrics that describe the workload's
// own op (core.*, budget.*, the netem and tcp counts, trace.*) come
// from that op.

// layerBudget is how long each per-layer measurement runs: long enough
// for a stable median, short enough that forty of them fit the window.
func layerBudget(window time.Duration) time.Duration {
	return window / 80
}

// tracedSimOps runs refOps reference ops and one traced op of cfg and
// fills the metrics that describe the op.
func tracedSimOps(r *runReport, tr *tracer, root int, cfg core.RunConfig, est budget.Footprint, minUtil float64, refOps int) error {
	chk := simCheck{r.fingerprint, minUtil}
	var last core.RunResult
	for i := 0; i < refOps; i++ {
		s, res := simOp(cfg, chk, r.complain, nil)
		if chk.want == "" && s.ok {
			chk.want = fingerprint(res)
			r.fingerprint = chk.want
		}
		r.ops = append(r.ops, s)
		last = res
	}
	ref := append([]opSample(nil), r.ops...)

	counter := &runCounter{counts: map[string]float64{}}
	traced := cfg
	traced.Collector = counter
	opSpan := tr.start("op", root, 1)
	var runSpan int
	s, res := simOp(traced, chk, r.complain, func(run func()) {
		runSpan = tr.start("core.Run", opSpan, 1)
		run()
		tr.end(runSpan)
	})
	tr.end(opSpan)
	r.ops = append(r.ops, s)
	tr.count(runSpan, "events", float64(res.Events))
	tr.count(runSpan, "drops", float64(res.TotalDrops))
	tr.count(runSpan, "ce_marks", float64(res.CEMarks))
	for k, v := range counter.counts {
		tr.count(runSpan, k, v)
	}

	col := func(get func(opSample) float64) []float64 { return column(ref, get) }
	refNorm := median(col(opSample.normMs))
	refRaw := median(col(func(s opSample) float64 { return s.rawMs }))
	var sent, retrans uint64
	for _, f := range last.Flows {
		sent += f.SegmentsSent
		retrans += f.Retransmissions
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	l := r.layer
	l["trace.overhead_pct"] = (s.normMs() - refNorm) / refNorm * 100
	l["core.events_per_op"] = float64(last.Events)
	l["core.ns_per_event"] = refRaw * 1e6 / float64(last.Events)
	l["core.allocs_per_op"] = median(col(func(s opSample) float64 { return s.allocs }))
	l["core.alloc_mb_per_op"] = median(col(func(s opSample) float64 { return s.allocBytes })) / 1e6
	l["core.gc_cycles_per_op"] = median(col(func(s opSample) float64 { return s.gcCycles }))
	l["core.peak_event_cap"] = float64(last.Usage.PeakEventCap)
	l["netem.drops_per_op"] = float64(last.TotalDrops)
	l["netem.ce_marks_per_op"] = float64(last.CEMarks)
	if sent > 0 {
		l["tcp.retrans_share"] = float64(retrans) / float64(sent)
	}
	// The estimator prices admission, deadlines and worker memory
	// ceilings, so it is held against what the process really used:
	// events processed, peak resident memory, wall time.
	l["budget.est_events_ratio"] = float64(est.Processed) / float64(last.Events)
	l["budget.est_heap_ratio"] = float64(est.HeapBytes) / (rss * (1 << 20))
	l["budget.est_wall_ratio"] = est.Wall.Seconds() * 1000 / refRaw
	return nil
}

// finishTrace fills the host metrics, closes the root span and writes
// the spans out.
func finishTrace(opt options, r *runReport, tr *tracer, root int) error {
	f := r.factors()
	q1, q3 := quartiles(f)
	r.layer["host.factor_p50"] = median(f)
	r.layer["host.factor_iqr"] = q3 - q1
	tr.end(root)
	if err := tr.write(opt.traceOut); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.info["trace_out"] = opt.traceOut
	r.info["spans"] = fmt.Sprint(len(tr.spans))
	var err error
	r.peakRSSMB, err = peakRSSMB(os.Getpid())
	return err
}

// traceSim is the traced run of an in-process workload.
func traceSim(opt options, r *runReport) error {
	r.layer = map[string]float64{}
	tr := newTracer()
	root := tr.start("traced-run", 0, 0)
	refOps := 3
	if opt.quick {
		refOps = 1
	}
	err := onOneP(func() error {
		in, err := prepareSim(opt, r)
		if err != nil {
			return err
		}
		if err := tracedSimOps(r, tr, root, in.cfg, in.est, simMinUtil, refOps); err != nil {
			return err
		}
		return runLayerDrivers(opt, tr, root, layerBudget(opt.window), in.doc, r.layer)
	})
	if err != nil {
		return err
	}
	svc, err := newSvcKernel(opt.tmpRoot, serveClients())
	if err != nil {
		return err
	}
	defer svc.close()
	served, err := serveLadder(opt, r, svc.kernel(), tr, root, opt.window/16, opt.window/24, 20)
	if err != nil {
		return err
	}
	r.attemptedExtra += len(served.ops)
	if err := svc.close(); err != nil {
		return err
	}
	return finishTrace(opt, r, tr, root)
}

// traceServe is the traced run of the serving workload. The op that
// core.*, budget.* and the netem/tcp counts describe is the served job
// itself, run in this process: the simulation a worker performs.
func traceServe(opt options, r *runReport, svc hostKernel) error {
	r.layer = map[string]float64{}
	tr := newTracer()
	root := tr.start("traced-run", 0, 0)

	err := timedSetups(r, svc, 3, opt.tmpRoot, func(dir string) error { return bootCycle(opt.ccserve, dir) })
	if err != nil {
		return err
	}
	scn := &schema.Scenario{SchemaVersion: schema.Version, JobSpec: serveJob(opt.seed, 0, 0)}
	doc, err := scn.Encode()
	if err != nil {
		return err
	}
	b, err := core.NewScenarioBuilder(scn)
	if err != nil {
		return err
	}
	cfg := b.RunConfig()
	twin := &runReport{layer: r.layer}
	err = onOneP(func() error {
		if err := tracedSimOps(twin, tr, root, cfg, core.EstimateConfig(cfg), 0, 3); err != nil {
			return err
		}
		return runLayerDrivers(opt, tr, root, layerBudget(opt.window), doc, r.layer)
	})
	if err != nil {
		return err
	}
	r.failed += twin.failed
	r.complaints = append(r.complaints, twin.complaints...)
	r.attemptedExtra += len(twin.ops)

	minJobs := 200
	if opt.quick {
		minJobs = 20
	}
	served, err := serveLadder(opt, r, svc, tr, root, opt.window/5, opt.window/12, minJobs)
	if err != nil {
		return err
	}
	r.ops = served.ops
	r.rawWorkPerS, r.normWorkPerS = served.throughput()
	r.fingerprint = twin.fingerprint
	return finishTrace(opt, r, tr, root)
}

// serveLadder boots ccserve and measures the ccserve.* metrics: a
// fleet phase with tracing off (the reference, and the source of every
// latency metric), the same phase again with a span around every HTTP
// call, a re-POST of finished jobs (the read path beside the write
// path), and a short phase against an -inprocess server (what process
// isolation costs). It returns the untraced fleet phase, whose ops the
// caller accounts for; the other phases' ops are counted here.
func serveLadder(opt options, r *runReport, svc hostKernel, tr *tracer, parent int, fleetWindow, inprocWindow time.Duration, minJobs int) (*servePhase, error) {
	span := tr.start("layer/ccserve", parent, 0)
	defer tr.end(span)
	if _, err := os.Stat(opt.ccserve); err != nil {
		return nil, fmt.Errorf("ccserve binary: %w (bench/run.sh builds it)", err)
	}
	boot := func(extra ...string) (*ccserveProc, func(), error) {
		dir, err := os.MkdirTemp(opt.tmpRoot, "serve-")
		if err != nil {
			return nil, nil, err
		}
		p, err := startCCServe(opt.ccserve, dir, extra...)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		return p, func() { os.RemoveAll(dir) }, nil
	}

	p, cleanup, err := boot()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	fail := func(err error) (*servePhase, error) {
		p.stop()
		return nil, err
	}
	spawns0, err := p.fleetSpawns()
	if err != nil {
		return fail(err)
	}
	clients := serveClients()
	ref := runPhase(p, newRendezvous(svc, clients, fleetWindow, minJobs), opt.seed, 1, nil, 0)
	spawns1, err := p.fleetSpawns()
	if err != nil {
		return fail(err)
	}
	traced := runPhase(p, newRendezvous(svc, clients, fleetWindow, minJobs), opt.seed, 2, tr, span)

	// The read path: a finished job submitted again is answered from
	// the server's table without touching a worker.
	var resubmit []float64
	for i, o := range ref.outcomes {
		if i == resubmitJobs {
			break
		}
		start := time.Now()
		st, _, err := postBatch(http.DefaultClient, p.base, o.spec)
		resubmit = append(resubmit, time.Since(start).Seconds()*1000)
		if err != nil {
			r.complain("resubmit: " + err.Error())
		} else if st.State != schema.JobDone {
			r.complain(fmt.Sprintf("resubmitted job %s is %q, want done", o.spec.Name, st.State))
		}
	}
	r.attemptedExtra += len(resubmit)
	if err := p.stop(); err != nil {
		return nil, err
	}

	ref.ops = ref.samples(r)
	refSamples := ref.ops
	tracedSamples := traced.samples(r)
	r.attemptedExtra += len(tracedSamples)
	if _, err := verifyRecords(p.out, append(ref.outcomes, traced.outcomes...), r); err != nil {
		return nil, err
	}

	ip, cleanupIP, err := boot("-inprocess")
	if err != nil {
		return nil, err
	}
	defer cleanupIP()
	inproc := runPhase(ip, newRendezvous(svc, clients, inprocWindow, minJobs), opt.seed, 3, nil, 0)
	if err := ip.stop(); err != nil {
		return nil, err
	}
	inprocSamples := inproc.samples(r)
	r.attemptedExtra += len(inprocSamples)

	norm := func(ss []opSample) []float64 { return column(ss, opSample.normMs) }
	var submit, wall, overhead []float64
	refused := 0
	for _, o := range ref.outcomes {
		if o.refused {
			refused++
		}
		if o.miss != "" {
			continue
		}
		submit = append(submit, o.submitMs)
		wall = append(wall, o.wallMs)
		overhead = append(overhead, o.opMs-o.wallMs)
	}
	l := r.layer
	l["ccserve.submit_ms_p50"] = median(submit)
	l["ccserve.run_wall_ms_p50"] = median(wall)
	l["ccserve.overhead_ms_p50"] = median(overhead)
	pct, tail := tailPercentile(norm(refSamples))
	l["ccserve.job_tail_ms"] = tail
	r.info["ccserve.job_tail_percentile"] = fmt.Sprintf("p%g of %d", pct, len(refSamples))
	l["ccserve.resubmit_ms_p50"] = median(resubmit)
	l["ccserve.spawns_per_job"] = (spawns1 - spawns0) / float64(len(ref.outcomes))
	l["ccserve.inprocess_job_ms_p50"] = median(norm(inprocSamples))
	l["ccserve.refused_share"] = float64(refused) / float64(len(ref.outcomes))
	r.info["ccserve.fleet_job_ms_p50"] = fmt.Sprintf("%.3f", median(norm(refSamples)))
	r.info["ccserve.traced_job_ms_p50"] = fmt.Sprintf("%.3f", median(norm(tracedSamples)))
	if r.workload == wServe {
		refMs := median(norm(refSamples))
		l["trace.overhead_pct"] = (median(norm(tracedSamples)) - refMs) / refMs * 100
	}
	return ref, nil
}
