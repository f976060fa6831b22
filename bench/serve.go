package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"syscall"
	"time"

	"ccatscale/internal/schema"
	"ccatscale/internal/store"
	"ccatscale/internal/telemetry"
)

const (
	// serveMinJobs is the fewest jobs a timed serving window may hold.
	serveMinJobs = 1000
	// rendezvousEvery is how often the clients stop so the reference
	// slice can run on an idle machine.
	rendezvousEvery = 500 * time.Millisecond
	// serveWorkers is ccserve's own default, passed explicitly so the
	// workload does not move if the default does.
	serveWorkers = 2
	// resubmitJobs is how many finished jobs the read-path probe
	// re-POSTs.
	resubmitJobs = 200
)

// serveClients is the closed-loop client count: never more clients
// than cores, or the clients would be timing each other.
func serveClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// ccserveProc is one running ccserve supervisor.
type ccserveProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	out    string
	stderr bytes.Buffer
	stdout addrWatcher
	exited chan error
}

// addrWatcher is ccserve's stdout: it keeps what was written and
// signals once the "listening on" line has appeared.
type addrWatcher struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
}

var listenLine = regexp.MustCompile(`listening on (\S+), results in`)

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.found {
		if m := listenLine.FindSubmatch(w.buf.Bytes()); m != nil {
			w.found = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

// startCCServe execs the binary as shipped — fleet mode unless extra
// says otherwise — on an ephemeral port and waits until /healthz
// reports ready.
func startCCServe(bin, outDir string, extra ...string) (*ccserveProc, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-out", outDir, "-workers", fmt.Sprint(serveWorkers)}, extra...)
	p := &ccserveProc{cmd: exec.Command(bin, args...), out: outDir, exited: make(chan error, 1)}
	p.stdout.addr = make(chan string, 1)
	p.cmd.Stdout = &p.stdout
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { p.exited <- p.cmd.Wait() }()
	select {
	case addr := <-p.stdout.addr:
		p.base = "http://" + addr
	case err := <-p.exited:
		return nil, fmt.Errorf("ccserve exited before listening: %v: %s", err, p.stderr.String())
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
		return nil, fmt.Errorf("ccserve did not listen within 30s: %s", p.stderr.String())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
			err = fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("ccserve never became ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server with SIGTERM and waits until it has exited.
func (p *ccserveProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.cmd.Process.Kill()
	}
	select {
	case err := <-p.exited:
		if err != nil {
			return fmt.Errorf("ccserve exit: %v: %s", err, p.stderr.String())
		}
		return nil
	case <-time.After(60 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
		return fmt.Errorf("ccserve did not drain within 60s")
	}
}

// fleetSpawns reads the fleet_spawns counter from /metricsz.
func (p *ccserveProc) fleetSpawns() (float64, error) {
	resp, err := http.Get(p.base + "/metricsz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, fmt.Errorf("decoding /metricsz: %w", err)
	}
	return float64(snap.Counters["fleet_spawns"]), nil
}

// rendezvous stops every client at most every rendezvousEvery so the
// service kernel runs on an idle machine: with no job in flight the
// supervisor and its workers are quiet, so the slice sees the host and
// not the workload. A segment is the stretch between two slices; its
// host factor comes from the slices at its ends. Clients leave the
// loop only at a rendezvous, so none is left waiting for one that has
// gone. atStop, when set, runs at every rendezvous right after the
// slice, with that slice's time: the timed run puts one set-up cycle
// there, so set-up is sampled across the whole window.
type rendezvous struct {
	mu      sync.Mutex
	cond    *sync.Cond
	kernel  hostKernel
	clients int
	waiting int
	atStop  func(slice time.Duration)
	// atMinJobs runs once, when the minJobs-th job completes.
	atMinJobs func()

	window  time.Duration
	minJobs int
	start   time.Time
	jobs    int // completed, all clients

	seg      int // current segment index
	segStart time.Time
	segDur   []time.Duration // one per closed segment
	slices   []time.Duration // slices[k] opens segment k
	stopped  bool
}

func newRendezvous(k hostKernel, clients int, window time.Duration, minJobs int) *rendezvous {
	rv := &rendezvous{kernel: k, clients: clients, window: window, minJobs: minJobs}
	rv.cond = sync.NewCond(&rv.mu)
	return rv
}

// begin runs the slice that opens the first segment.
func (rv *rendezvous) begin() {
	rv.stop()
	rv.start = time.Now()
	rv.segStart = rv.start
}

// stop is what happens while every client is parked.
func (rv *rendezvous) stop() {
	slice := rv.kernel.slice()
	rv.slices = append(rv.slices, slice)
	if rv.atStop != nil {
		rv.atStop(slice)
	}
}

// segment returns the segment a starting op belongs to.
func (rv *rendezvous) segment() int {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	return rv.seg
}

// done records one finished op and, when a rendezvous is due, waits
// for the other clients; the last to arrive runs the slice. It reports
// whether the client should go on.
func (rv *rendezvous) done() bool {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	rv.jobs++
	if rv.jobs == rv.minJobs && rv.atMinJobs != nil {
		rv.atMinJobs()
	}
	if time.Since(rv.segStart) < rendezvousEvery {
		return true
	}
	rv.waiting++
	if rv.waiting < rv.clients {
		seg := rv.seg
		for rv.seg == seg && !rv.stopped {
			rv.cond.Wait()
		}
		return !rv.stopped
	}
	// Last to arrive: everyone else is parked, nothing is in flight.
	rv.segDur = append(rv.segDur, time.Since(rv.segStart))
	rv.stop()
	rv.waiting = 0
	if time.Since(rv.start) >= rv.window && rv.jobs >= rv.minJobs {
		rv.stopped = true
	} else {
		rv.seg++
		rv.segStart = time.Now()
	}
	rv.cond.Broadcast()
	return !rv.stopped
}

// factor returns segment k's host factor.
func (rv *rendezvous) factor(k int) float64 {
	return rv.kernel.factor(rv.slices[k], rv.slices[k+1])
}

// jobOutcome is one closed-loop op: submit a fresh job, follow its
// event stream to a terminal state.
type jobOutcome struct {
	spec     schema.JobSpec
	key      string
	seg      int
	opMs     float64
	submitMs float64
	wallMs   float64
	refused  bool
	miss     string // why the op failed; "" = it did not
}

// postBatch submits one job and returns its status as admitted.
func postBatch(hc *http.Client, base string, spec schema.JobSpec) (schema.JobStatus, int, error) {
	body, err := json.Marshal(schema.BatchRequest{SchemaVersion: schema.Version, Jobs: []schema.JobSpec{spec}})
	if err != nil {
		return schema.JobStatus{}, 0, err
	}
	resp, err := hc.Post(base+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		return schema.JobStatus{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return schema.JobStatus{}, resp.StatusCode, fmt.Errorf("submit answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var br schema.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return schema.JobStatus{}, resp.StatusCode, fmt.Errorf("decoding batch response: %w", err)
	}
	if len(br.Jobs) != 1 {
		return schema.JobStatus{}, resp.StatusCode, fmt.Errorf("batch response lists %d jobs, want 1", len(br.Jobs))
	}
	return br.Jobs[0], resp.StatusCode, nil
}

// followEvents reads a job's event stream until the server ends it and
// returns the last status seen. No polling interval enters the number.
func followEvents(hc *http.Client, base, key string) (schema.JobStatus, error) {
	resp, err := hc.Get(base + "/v1/jobs/" + key + "/events")
	if err != nil {
		return schema.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return schema.JobStatus{}, fmt.Errorf("events answered %d", resp.StatusCode)
	}
	var last schema.JobStatus
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var line struct {
			Type string           `json:"type"`
			Data schema.JobStatus `json:"data"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Type == "status" {
			last = line.Data
		}
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	return last, nil
}

// doJob is one op. tr may be nil.
func doJob(hc *http.Client, base string, spec schema.JobSpec, tr *tracer, parent, opID int) jobOutcome {
	o := jobOutcome{spec: spec}
	opSpan := tr.start("op", parent, opID)
	defer tr.end(opSpan)
	start := time.Now()

	sub := tr.start("ccserve.submit", opSpan, opID)
	st, code, err := postBatch(hc, base, spec)
	tr.end(sub)
	o.submitMs = time.Since(start).Seconds() * 1000
	if err != nil {
		o.refused = code == http.StatusTooManyRequests
		o.miss = err.Error()
		o.opMs = o.submitMs
		return o
	}
	o.key = st.Key

	ev := tr.start("ccserve.events", opSpan, opID)
	final, err := followEvents(hc, base, st.Key)
	tr.end(ev)
	o.opMs = time.Since(start).Seconds() * 1000
	o.wallMs = final.WallMs
	switch {
	case err != nil:
		o.miss = "event stream: " + err.Error()
	case final.State != schema.JobDone:
		o.miss = fmt.Sprintf("job %s ended %q: %s", spec.Name, final.State, final.Error)
	case final.Attempts != 1:
		o.miss = fmt.Sprintf("job %s took %d attempts", spec.Name, final.Attempts)
	case final.Cached:
		o.miss = fmt.Sprintf("job %s was served from cache; every job must be fresh", spec.Name)
	}
	return o
}

// servePhase is one closed-loop window against a running server.
type servePhase struct {
	outcomes []jobOutcome
	rv       *rendezvous
	ops      []opSample // filled by whoever calls samples
}

// runPhase drives the closed-loop clients against a running server
// until rv says the window is over. phase keeps job names of different
// phases of one run apart.
func runPhase(p *ccserveProc, rv *rendezvous, seed uint64, phase int, tr *tracer, parent int) *servePhase {
	clients := rv.clients
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}
	defer hc.CloseIdleConnections()
	rv.begin()
	perClient := make([][]jobOutcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				seg := rv.segment()
				o := doJob(hc, p.base, serveJob(seed, phase*16+c, i), tr, parent, (phase*16+c)*1_000_000+i+1)
				o.seg = seg
				perClient[c] = append(perClient[c], o)
				if !rv.done() {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	ph := &servePhase{rv: rv}
	for _, os := range perClient {
		ph.outcomes = append(ph.outcomes, os...)
	}
	return ph
}

// samples converts a phase's outcomes into op samples, recording every
// failed op on r.
func (ph *servePhase) samples(r *runReport) []opSample {
	out := make([]opSample, 0, len(ph.outcomes))
	for _, o := range ph.outcomes {
		if o.miss != "" {
			r.complain(o.miss)
		}
		out = append(out, opSample{rawMs: o.opMs, factor: ph.rv.factor(o.seg), work: 1, ok: o.miss == ""})
	}
	return out
}

// throughput returns jobs per second over the phase, raw and
// host-normalised: the median over the rendezvous segments of the jobs
// a segment completed divided by its duration, the duration divided by
// the segment's own host factor for the normalised rate.
func (ph *servePhase) throughput() (raw, norm float64) {
	perSeg := make([]float64, len(ph.rv.segDur))
	for _, o := range ph.outcomes {
		perSeg[o.seg]++
	}
	raws := make([]float64, len(perSeg))
	norms := make([]float64, len(perSeg))
	for k, d := range ph.rv.segDur {
		raws[k] = perSeg[k] / d.Seconds()
		norms[k] = raws[k] * ph.rv.factor(k)
	}
	return median(raws), median(norms)
}

// fingerprintJobs is how many of the first client's jobs the serving
// fingerprint covers: few enough that every run completes them.
const fingerprintJobs = 100

// verifyRecords reads every finished job's record back through the
// store: a job is only done if its result is durably there and its
// checksum verifies. It returns a fingerprint over the payloads of the
// first client's first jobs — the same jobs in every run of one seed,
// and a served result is byte-identical across reruns.
func verifyRecords(outDir string, outcomes []jobOutcome, r *runReport) (string, error) {
	st, err := store.Open(filepath.Join(outDir, "store"))
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for i, o := range outcomes {
		if o.miss != "" {
			continue
		}
		payload, err := st.Get(o.key)
		if err != nil {
			r.complain(fmt.Sprintf("job %s: record %s: %v", o.spec.Name, o.key, err))
			continue
		}
		if i < fingerprintJobs {
			h.Write(payload)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}

// bootCycle is the serving workload's set-up path: exec ccserve with
// dir as its output directory, wait until /healthz reports ready,
// SIGTERM, wait until it has exited.
func bootCycle(bin, dir string) error {
	p, err := startCCServe(bin, dir)
	if err != nil {
		return err
	}
	return p.stop()
}

// runServe is one run of the serving workload (W4).
func runServe(opt options) (*runReport, error) {
	r := &runReport{workload: opt.workload, info: map[string]string{}}
	if _, err := os.Stat(opt.ccserve); err != nil {
		return nil, fmt.Errorf("ccserve binary: %w (bench/run.sh builds it)", err)
	}
	svc, err := newSvcKernel(opt.tmpRoot, serveClients())
	if err != nil {
		return nil, err
	}
	defer svc.close()
	if opt.trace {
		if err := traceServe(opt, r, svc.kernel()); err != nil {
			return nil, err
		}
		return r, svc.close()
	}

	outDir, err := os.MkdirTemp(opt.tmpRoot, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(outDir)
	p, err := startCCServe(opt.ccserve, outDir)
	if err != nil {
		return nil, err
	}
	minJobs := serveMinJobs
	if opt.quick {
		minJobs = 20
	}
	rv := newRendezvous(svc.kernel(), serveClients(), opt.window, minJobs)
	// One set-up cycle per rendezvous, on the idle machine, normalised
	// by the slice that ran just before it.
	var bootErr error
	rv.atStop = func(slice time.Duration) {
		dir, err := os.MkdirTemp(opt.tmpRoot, "boot-")
		if err == nil {
			start := time.Now()
			err = bootCycle(opt.ccserve, dir)
			d := time.Since(start).Seconds()
			os.RemoveAll(dir)
			r.setupRaw = append(r.setupRaw, d)
			r.setupNorm = append(r.setupNorm, d/rv.kernel.factor(slice, slice))
		}
		if err != nil && bootErr == nil {
			bootErr = err
		}
	}
	// The supervisor keeps every job it has seen, so its memory grows
	// with the jobs served: read the peak at a fixed job count, not at
	// whatever count this window happened to reach.
	var rssErr error
	rv.atMinJobs = func() { r.peakRSSMB, rssErr = peakRSSMB(p.cmd.Process.Pid) }
	ph := runPhase(p, rv, opt.seed, 0, nil, 0)
	if err := errors.Join(bootErr, rssErr); err != nil {
		p.stop()
		return nil, err
	}
	if err := p.stop(); err != nil {
		return nil, err
	}
	ph.ops = ph.samples(r)
	r.ops = ph.ops
	r.rawWorkPerS, r.normWorkPerS = ph.throughput()
	if r.fingerprint, err = verifyRecords(outDir, ph.outcomes, r); err != nil {
		return nil, err
	}
	r.info["clients"] = fmt.Sprint(rv.clients)
	r.info["segments"] = fmt.Sprint(len(rv.segDur))
	r.info["rss_read_at_job"] = fmt.Sprint(minJobs)
	pct, tail := tailPercentile(r.column(opSample.normMs))
	r.info["job_tail_ms"] = fmt.Sprintf("%.3f (p%g)", tail, pct)
	return r, svc.close()
}
