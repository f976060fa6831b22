package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"ccatscale/internal/budget"
	"ccatscale/internal/core"
	"ccatscale/internal/schema"
	"ccatscale/internal/store"
)

// minOps is the fewest timed operations a window may hold: below it a
// median is a statement about a handful of samples, so the window runs
// past its time until it has them.
const minOps = 8

// simMinUtil is the bottleneck utilization every W1–W3 op must reach:
// a run that leaves the link idle is not the workload.
const simMinUtil = 0.9

// simSetupBurst is how many times the set-up path runs before each op.
// Set-up takes ≈0.2 ms, too little to time once, and a burst at one
// instant catches the host in one state; a burst before every op
// spreads the samples over the whole window.
const simSetupBurst = 8

// fingerprint condenses everything about a run's outcome that an
// optimisation must not move into one comparable string: the event
// count, fabric drop and mark totals, and every flow's delivery,
// retransmission, halving and ECN-response counters.
func fingerprint(res core.RunResult) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(res.Events)
	put(res.TotalDrops)
	put(res.CEMarks)
	put(uint64(len(res.Flows)))
	for _, f := range res.Flows {
		put(f.SegmentsDelivered)
		put(f.Retransmissions)
		put(f.Halvings)
		put(f.ECNResponses)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// simInputs is what the set-up path hands to the timed loop.
type simInputs struct {
	cfg core.RunConfig
	est budget.Footprint
	doc []byte
}

// setupSim is the whole path from a seed to a runnable, priced
// configuration, as a user of scenario files walks it: generate the
// document, write it, read it back, parse, compile, estimate, and open
// a result store beside it. dir must exist and be empty.
func setupSim(workload string, seed uint64, quick bool, dir string) (simInputs, error) {
	scn, err := scenarioFor(workload, seed, quick)
	if err != nil {
		return simInputs{}, err
	}
	doc, err := scn.Encode()
	if err != nil {
		return simInputs{}, fmt.Errorf("encoding scenario: %w", err)
	}
	path := filepath.Join(dir, workload+".json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return simInputs{}, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return simInputs{}, err
	}
	parsed, err := schema.ParseScenario(data)
	if err != nil {
		return simInputs{}, err
	}
	b, err := core.NewScenarioBuilder(parsed)
	if err != nil {
		return simInputs{}, err
	}
	cfg := b.RunConfig()
	est := core.EstimateConfig(cfg)
	if _, err := store.Open(filepath.Join(dir, "store")); err != nil {
		return simInputs{}, fmt.Errorf("opening store: %w", err)
	}
	return simInputs{cfg: cfg, est: est, doc: data}, nil
}

// timedSetups runs setup reps times, each in a fresh directory under
// tmpRoot, between two slices of the kernel, and records each
// repetition's raw and normalised time on r. One pair of slices
// brackets the whole burst because a repetition is far shorter than a
// slice.
func timedSetups(r *runReport, k hostKernel, reps int, tmpRoot string, setup func(dir string) error) error {
	before := k.slice()
	var raw []float64
	for i := 0; i < reps; i++ {
		dir, err := os.MkdirTemp(tmpRoot, "setup-")
		if err != nil {
			return err
		}
		start := time.Now()
		err = setup(dir)
		raw = append(raw, time.Since(start).Seconds())
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	factor := k.factor(before, k.slice())
	for _, x := range raw {
		r.setupRaw = append(r.setupRaw, x)
		r.setupNorm = append(r.setupNorm, x/factor)
	}
	return nil
}

// opSample is one timed operation.
type opSample struct {
	rawMs  float64
	factor float64
	work   float64 // simulator events (W1–W3) or jobs (W4)
	ok     bool
	// Allocator deltas around the op and the resident-set peak reached
	// during it (in-process workloads only).
	allocs, allocBytes, gcCycles float64
	peakRSSMB                    float64
}

func (s opSample) normMs() float64 { return s.rawMs / s.factor }

// settleHeap returns the heap to the same state before every op, so
// op N does not pay for (or profit from) the garbage of op N−1, and
// restarts the kernel's resident-set high-water mark from there, so
// every op reports its own peak: a maximum over the whole run would be
// set by whichever op the collector happened to pace worst.
func settleHeap() {
	runtime.GC()
	debug.FreeOSMemory()
	// "5" resets VmHWM to the current resident set. Where the kernel
	// refuses, the peaks read are cumulative — still a valid ceiling.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// checkSimResult applies the sanity bounds every op must meet and
// returns a description of the first miss.
func checkSimResult(res core.RunResult, err error, want string, minUtil float64) string {
	switch {
	case err != nil:
		return "run failed: " + err.Error()
	case res.AuditViolations != 0:
		return fmt.Sprintf("%d audit violations", res.AuditViolations)
	case res.Utilization < minUtil:
		return fmt.Sprintf("bottleneck utilization %.3f < %.2f", res.Utilization, minUtil)
	case want != "" && fingerprint(res) != want:
		return fmt.Sprintf("fingerprint %s differs from the run's first %s", fingerprint(res), want)
	}
	return ""
}

// simCheck is what an op's result is held to.
type simCheck struct {
	want    string  // fingerprint to repeat; "" = not fixed yet
	minUtil float64 // bottleneck utilization floor
}

// simOp runs one bracketed core.Run and samples the allocator around
// it. The MemStats reads sit outside the bracket. wrap, when not nil,
// surrounds the call into core (the traced run puts a span there).
func simOp(cfg core.RunConfig, chk simCheck, complain func(string), wrap func(run func())) (opSample, core.RunResult) {
	settleHeap()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var res core.RunResult
	var err error
	run := func() { res, err = core.Run(cfg) }
	raw, factor := cpuKernel.bracketed(func() {
		if wrap != nil {
			wrap(run)
		} else {
			run()
		}
	})
	runtime.ReadMemStats(&m1)
	rss, rssErr := peakRSSMB(os.Getpid())
	s := opSample{
		rawMs:      raw.Seconds() * 1000,
		factor:     factor,
		work:       float64(res.Events),
		allocs:     float64(m1.Mallocs - m0.Mallocs),
		allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
		gcCycles:   float64(m1.NumGC - m0.NumGC),
		peakRSSMB:  rss,
	}
	if rssErr != nil {
		complain("reading peak RSS: " + rssErr.Error())
	} else if miss := checkSimResult(res, err, chk.want, chk.minUtil); miss != "" {
		complain(miss)
	} else {
		s.ok = true
	}
	return s, res
}

// setupBurst runs one burst of the in-process set-up path and returns
// the inputs it produced.
func setupBurst(opt options, r *runReport) (simInputs, error) {
	var in simInputs
	err := timedSetups(r, cpuKernel, simSetupBurst, opt.tmpRoot, func(dir string) error {
		var err error
		in, err = setupSim(opt.workload, opt.seed, opt.quick, dir)
		return err
	})
	return in, err
}

// prepareSim runs the first set-up burst and the audited warm-up op,
// which fixes the fingerprint every later op of the run must repeat.
// The warm-up is untimed: it pays the process's one-time costs (heap
// growth to working size, page faults on fresh arenas) and, running
// under the strict auditor, proves the un-audited ops that follow are
// the same simulation.
func prepareSim(opt options, r *runReport) (simInputs, error) {
	in, err := setupBurst(opt, r)
	if err != nil {
		return simInputs{}, err
	}
	warm := in.cfg
	warm.Audit = "strict"
	settleHeap()
	res, err := core.Run(warm)
	if miss := checkSimResult(res, err, "", simMinUtil); miss != "" {
		r.complain("audited warm-up op: " + miss)
		r.attemptedExtra++
	} else {
		r.fingerprint = fingerprint(res)
	}
	return in, nil
}

// simWindow repeats a set-up burst and the op until the window has
// elapsed and holds at least min ops. Every op counts: a slow one is
// never dropped or retried.
func simWindow(opt options, r *runReport, cfg core.RunConfig, min int) (core.RunResult, error) {
	var last core.RunResult
	start := time.Now()
	for len(r.ops) < min || time.Since(start) < opt.window {
		if _, err := setupBurst(opt, r); err != nil {
			return last, err
		}
		s, res := simOp(cfg, simCheck{r.fingerprint, simMinUtil}, r.complain, nil)
		if r.fingerprint == "" && s.ok {
			r.fingerprint = fingerprint(res)
		}
		r.ops = append(r.ops, s)
		last = res
	}
	return last, nil
}

// onOneP runs fn with a single P.
//
// The simulator is single-threaded, so its ops run on one P: with two,
// the garbage collector's background workers take the second hardware
// thread — on a 2-vCPU sandbox the sibling of the one the simulation is
// on — and the op slows itself down by an amount the reference kernel,
// which runs while the collector is idle, never sees. Measured on
// mix-bbr-cubic-400 (330 MB of garbage per op), one P takes the
// window-median spread of the normalised op time from 12 % to 3 % and
// costs no wall time.
func onOneP(fn func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return fn()
}

// runSim is one run of an in-process workload (W1–W3).
func runSim(opt options) (*runReport, error) {
	r := &runReport{workload: opt.workload, info: map[string]string{}}
	if opt.trace {
		return r, traceSim(opt, r)
	}
	err := onOneP(func() error {
		in, err := prepareSim(opt, r)
		if err != nil {
			return err
		}
		min := minOps
		if opt.quick {
			min = 2
		}
		last, err := simWindow(opt, r, in.cfg, min)
		if err != nil {
			return err
		}
		r.info["events_per_op"] = fmt.Sprint(last.Events)
		r.info["drops_per_op"] = fmt.Sprint(last.TotalDrops)
		r.info["ce_marks_per_op"] = fmt.Sprint(last.CEMarks)
		r.info["utilization"] = fmt.Sprintf("%.4f", last.Utilization)
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.peakRSSMB = median(r.column(func(s opSample) float64 { return s.peakRSSMB }))
	r.info["allocs_per_op"] = fmt.Sprintf("%.0f", median(r.column(func(s opSample) float64 { return s.allocs })))
	r.info["alloc_mb_per_op"] = fmt.Sprintf("%.2f", median(r.column(func(s opSample) float64 { return s.allocBytes }))/1e6)
	return r, nil
}
