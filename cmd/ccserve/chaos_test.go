package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"ccatscale/internal/schema"
	"ccatscale/internal/store"
	"ccatscale/internal/store/chaostest"
)

// chaosSpecs is the batch every chaos cycle submits: two scenarios tiny
// enough that a full run is milliseconds, distinct enough to commit two
// separate results.
func chaosSpecs() []schema.JobSpec {
	a := schema.JobSpec{
		Name: "chaos-a", Seed: 7, RateMbps: 5, BufferBytes: 16384, DurationS: 0.25,
		Flows: []schema.FlowGroup{{CCA: "reno", RTTMs: 20, Count: 1}},
	}
	b := a
	b.Name, b.Seed = "chaos-b", 11
	b.Flows = []schema.FlowGroup{{CCA: "cubic", RTTMs: 40, Count: 1}}
	return []schema.JobSpec{a, b}
}

func chaosServerConfig(dir string, fsys store.FS) serverConfig {
	return serverConfig{
		out:     dir,
		workers: 2,
		slots:   8,
		// Short TTL so a killed predecessor's leases go stale fast; the
		// test also backdates them so reboots never sleep.
		leaseTTL:       2 * time.Second,
		leaseHeartbeat: 200 * time.Millisecond,
		minDeadline:    30 * time.Second,
		drainTimeout:   5 * time.Second,
		// A chaos kill makes jobs fail with FS errors; that must never
		// read as a poisoned config.
		poisonAfter: 1000,
		fsys:        fsys,
		stderr:      io.Discard,
	}
}

// storeFingerprint hashes the committed result set: sorted keys, each
// with the SHA-256 of its payload. Two directories with equal
// fingerprints hold byte-identical results.
func storeFingerprint(t *testing.T, dir string) string {
	t.Helper()
	st, err := store.OpenFS(filepath.Join(dir, "store"), store.OSFS())
	if err != nil {
		t.Fatalf("open store %s: %v", dir, err)
	}
	keys, err := st.Keys()
	if err != nil {
		t.Fatalf("store keys: %v", err)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		data, err := st.Get(k)
		if err != nil {
			t.Fatalf("store get %s: %v", k, err)
		}
		fmt.Fprintf(h, "%s %x\n", k, sha256.Sum256(data))
	}
	return fmt.Sprintf("%d:%x", len(keys), h.Sum(nil))
}

// assertOneRecordPerRun is the exactly-once ledger, read from the
// store: every spec's run key holds one result record beside its spec
// record, and the store holds nothing else.
func assertOneRecordPerRun(t *testing.T, dir string, specs []schema.JobSpec) {
	t.Helper()
	st, err := store.OpenFS(filepath.Join(dir, "store"), store.OSFS())
	if err != nil {
		t.Fatal(err)
	}
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, spec := range specs {
		key := mustBuildJob(t, spec).key
		want[key], want[key+specSuffix] = true, true
	}
	for _, k := range keys {
		if !want[k] {
			t.Errorf("store holds an unexpected record %s", k)
		}
		delete(want, k)
	}
	for k := range want {
		t.Errorf("store lacks record %s", k)
	}
}

// backdateLeases ages every lease file in dir past any TTL, standing in
// for the wall-clock time a real operator would wait after a crash.
func backdateLeases(t *testing.T, dir string) {
	t.Helper()
	old := time.Now().Add(-time.Hour)
	files, err := filepath.Glob(filepath.Join(dir, "leases", "*.lease"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if err := os.Chtimes(f, old, old); err != nil && !os.IsNotExist(err) {
			t.Fatalf("backdate %s: %v", f, err)
		}
	}
}

// quiesce polls the batch until no member is mid-flight (running), or
// the window closes — a killed server's jobs settle quickly, but jobs
// it never started may stay queued forever, which is fine.
func quiesce(s *server, batch string, window time.Duration) {
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		running := 0
		for _, k := range s.batches[batch] {
			if j, ok := s.jobs[k]; ok && j.status.State == schema.JobRunning {
				running++
			}
		}
		s.mu.Unlock()
		if running == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cleanCycle runs the full request→spec record→execute→store path on a
// pristine directory and returns its store fingerprint — the reference
// every chaos recovery must reproduce byte for byte.
func cleanCycle(t *testing.T, dir string, fsys store.FS) string {
	t.Helper()
	s, err := newServer(chaosServerConfig(dir, fsys))
	if err != nil {
		t.Fatalf("clean boot: %v", err)
	}
	resp, rr := submit(t, s, chaosSpecs()...)
	if rr.Code != http.StatusCreated {
		t.Fatalf("clean submit: %d: %s", rr.Code, rr.Body.String())
	}
	final := waitBatch(t, s, resp.Batch, 30*time.Second)
	for _, j := range final.Jobs {
		if j.State != schema.JobDone {
			t.Fatalf("clean run: job %s is %s (%s)", j.Name, j.State, j.Error)
		}
	}
	s.Drain()
	return storeFingerprint(t, dir)
}

// TestSubmitSpecFailureMidBatch pins the pool accounting when a spec
// record's Put dies partway through a batch: the submit fails, but
// every admitted member is already queued and releases its own
// footprint at completion — releasing any of them on the error path too
// would double-release and let the pool over-admit past -slots. The
// invariant checked at every kill point: pool depth equals the number
// of jobs in the queue.
func TestSubmitSpecFailureMidBatch(t *testing.T) {
	specs := chaosSpecs()
	c := specs[0]
	c.Name, c.Seed = "chaos-c", 13
	specs = append(specs, c)

	// Probe a healthy boot+submit to learn which op window the commit
	// loop's spec records occupy.
	probe := chaostest.Wrap(store.OSFS(), chaostest.Plan{})
	pcfg := chaosServerConfig(t.TempDir(), probe)
	pcfg.workers = 0
	ps, err := newServer(pcfg)
	if err != nil {
		t.Fatalf("probe boot: %v", err)
	}
	bootOps := probe.Ops()
	if _, rr := submit(t, ps, specs...); rr.Code != http.StatusCreated {
		t.Fatalf("probe submit: %d: %s", rr.Code, rr.Body.String())
	}
	submitOps := probe.Ops() - bootOps
	ps.Drain()
	if submitOps == 0 {
		t.Fatal("probe submit crossed no FS boundaries")
	}

	for k := bootOps + 1; k <= bootOps+submitOps; k++ {
		cfs := chaostest.Wrap(store.OSFS(), chaostest.Plan{KillAt: k, TornBytes: 3})
		cfg := chaosServerConfig(t.TempDir(), cfs)
		cfg.workers = 0
		s, err := newServer(cfg)
		if err != nil {
			continue // the kill landed inside boot; nothing to check
		}
		_, rr := submit(t, s, specs...)
		s.mu.Lock()
		queued, depth := len(s.queue), s.pool.Depth()
		s.mu.Unlock()
		if depth != queued {
			t.Errorf("kill@%d: pool depth %d != %d queued jobs (submit returned %d)",
				k, depth, queued, rr.Code)
		}
		s.Drain()
	}
}

// TestChaosKillEveryBoundary is the crash-recovery acceptance test: it
// learns the syscall-op budget of one uninterrupted serve cycle, then
// for every boundary k kills the server's filesystem mid-cycle at op k,
// reboots over the same directory, resubmits, and requires the final
// store to be byte-identical to the uninterrupted reference, with one
// result record per run key — exactly-once commits under a SIGKILL at
// any instant of the commit path.
func TestChaosKillEveryBoundary(t *testing.T) {
	reference := cleanCycle(t, t.TempDir(), store.OSFS())

	// Probe the op budget with a chaos FS that never kills.
	probe := chaostest.Wrap(store.OSFS(), chaostest.Plan{})
	if got := cleanCycle(t, t.TempDir(), probe); got != reference {
		t.Fatalf("probe cycle fingerprint %s != reference %s", got, reference)
	}
	budget := probe.Ops()
	if budget == 0 {
		t.Fatal("probe counted no FS operations")
	}
	stride := uint64(1)
	if testing.Short() {
		stride = 7
	}
	t.Logf("op budget %d (stride %d)", budget, stride)

	for k := uint64(1); k <= budget; k += stride {
		k := k
		t.Run(fmt.Sprintf("kill@%d", k), func(t *testing.T) {
			dir := t.TempDir()
			cfs := chaostest.Wrap(store.OSFS(), chaostest.Plan{KillAt: k, TornBytes: 7})

			// Phase A: a server that will die at op k. Every outcome is
			// legitimate here — failed boot, refused submit, failed jobs
			// — as long as phase B recovers.
			if a, err := newServer(chaosServerConfig(dir, cfs)); err == nil {
				resp, rr := submit(t, a, chaosSpecs()...)
				if rr.Code == http.StatusCreated {
					quiesce(a, resp.Batch, 3*time.Second)
				}
				a.Drain()
			}

			// Phase B: reboot over the same directory on a healthy
			// filesystem and resubmit. Recovery must be total.
			backdateLeases(t, dir)
			b, err := newServer(chaosServerConfig(dir, store.OSFS()))
			if err != nil {
				t.Fatalf("reboot after kill@%d: %v", k, err)
			}
			defer b.Drain()
			resp, rr := submit(t, b, chaosSpecs()...)
			if rr.Code != http.StatusCreated {
				t.Fatalf("resubmit after kill@%d: %d: %s", k, rr.Code, rr.Body.String())
			}
			final := waitBatch(t, b, resp.Batch, 30*time.Second)
			for _, j := range final.Jobs {
				if j.State != schema.JobDone {
					t.Fatalf("kill@%d: job %s ended %s (%s), want done", k, j.Name, j.State, j.Error)
				}
			}
			b.Drain()

			if got := storeFingerprint(t, dir); got != reference {
				t.Errorf("kill@%d: store fingerprint %s != uninterrupted reference %s", k, got, reference)
			}
			assertOneRecordPerRun(t, dir, chaosSpecs())
		})
	}
}
