package chaostest

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"ccatscale/internal/store"
)

// opBudget measures how many syscall boundaries fn crosses on a clean
// run, so crash sweeps can place a kill at every single one.
func opBudget(t *testing.T, fn func(fs store.FS) error) uint64 {
	t.Helper()
	probe := Wrap(store.OSFS(), Plan{})
	if err := fn(probe); err != nil {
		t.Fatalf("clean probe run failed: %v", err)
	}
	if probe.Ops() == 0 {
		t.Fatal("probe crossed no syscall boundaries")
	}
	return probe.Ops()
}

// TestStorePutCrashAtEveryBoundary is the core atomicity sweep: kill
// the process at every syscall boundary of a Store.Put, reboot, and
// require that the key reads either fully committed or absent — never
// torn — and that a retry always converges to the committed bytes.
func TestStorePutCrashAtEveryBoundary(t *testing.T) {
	payload := []byte("table bytes: deterministic result of (config-hash, seed)\n")
	const key = "abcd1234-7"
	doPut := func(dir string) func(fs store.FS) error {
		return func(fs store.FS) error {
			s, err := store.OpenFS(dir, fs)
			if err != nil {
				return err
			}
			return s.Put(key, payload)
		}
	}
	budget := opBudget(t, doPut(t.TempDir()))
	t.Logf("Store.Put crosses %d syscall boundaries", budget)

	for kill := uint64(1); kill <= budget; kill++ {
		for _, torn := range []int{0, 7, -1} {
			plan := Plan{KillAt: kill, TornBytes: torn}
			t.Run(plan.String(), func(t *testing.T) {
				dir := t.TempDir()
				chaos := Wrap(store.OSFS(), plan)
				err := doPut(dir)(chaos)
				if !chaos.Killed() {
					t.Fatalf("kill point %d never fired (err=%v)", kill, err)
				}

				// Reboot: a fresh process over the same directory.
				s, err := store.Open(dir)
				if err != nil {
					t.Fatalf("reopen after crash: %v", err)
				}
				got, err := s.Get(key)
				switch {
				case err == nil:
					if !bytes.Equal(got, payload) {
						t.Fatalf("committed record differs after crash: %q", got)
					}
				case errors.Is(err, store.ErrNotFound):
					// Absent (possibly after quarantining a torn tmp
					// promoted by... nothing — tmp never renamed). Fine.
				default:
					t.Fatalf("Get after crash: %v", err)
				}

				// Recovery: the retry must land the exact bytes.
				if err := s.Put(key, payload); err != nil {
					t.Fatalf("recommit after crash: %v", err)
				}
				got, err = s.Get(key)
				if err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("record after recovery: %q, %v", got, err)
				}
			})
		}
	}
}

// TestJournalCrashAtEveryBoundary: kill at every syscall boundary while
// appending a fixed record sequence; reboot and replay. The recovered
// log must be an exact prefix of the attempted sequence — the pre-crash
// frontier — with no record altered, reordered, or invented, and at
// least every acknowledged (Append returned nil) record present.
func TestJournalCrashAtEveryBoundary(t *testing.T) {
	attempts := []store.JournalRecord{
		{Op: store.OpClaimed, Job: "fig4_edge", Key: "aa-7", Owner: "w1"},
		{Op: store.OpDone, Job: "fig4_edge", Key: "aa-7", Owner: "w1"},
		{Op: store.OpClaimed, Job: "fig5_core", Key: "bb-7", Owner: "w1"},
		{Op: store.OpDone, Job: "fig5_core", Key: "bb-7", Owner: "w1"},
	}
	doAppends := func(dir string) func(fs store.FS) (int, error) {
		return func(fs store.FS) (int, error) {
			j, _, err := store.OpenJournalFS(fs, dir, nil)
			if err != nil {
				return 0, err
			}
			acked := 0
			for _, rec := range attempts {
				if err := j.Append(rec); err != nil {
					return acked, err
				}
				acked++
			}
			return acked, j.Close()
		}
	}
	budget := opBudget(t, func(fs store.FS) error {
		_, err := doAppends(t.TempDir())(fs)
		return err
	})
	t.Logf("journal open+4 appends cross %d syscall boundaries", budget)

	for kill := uint64(1); kill <= budget; kill++ {
		for _, torn := range []int{0, 5, -1} {
			plan := Plan{KillAt: kill, TornBytes: torn}
			t.Run(plan.String(), func(t *testing.T) {
				dir := t.TempDir()
				chaos := Wrap(store.OSFS(), plan)
				acked, _ := doAppends(dir)(chaos)
				if !chaos.Killed() {
					t.Skip("appends finished before the kill point (budget includes Close)")
				}

				var got []store.JournalRecord
				j, n, err := store.OpenJournal(dir, func(r store.JournalRecord) error {
					got = append(got, r)
					return nil
				})
				if err != nil {
					t.Fatalf("journal recovery: %v", err)
				}
				defer j.Close()
				// Frontier: an exact prefix, at least the acked records.
				// (One more than acked can be present when the crash
				// landed between durability and acknowledgment.)
				if n < acked || n > len(attempts) {
					t.Fatalf("recovered %d records, acked %d, attempted %d", n, acked, len(attempts))
				}
				for i, r := range got {
					want := attempts[i]
					if r.Op != want.Op || r.Job != want.Job || r.Key != want.Key || r.Seq != uint64(i+1) {
						t.Fatalf("record %d altered: %+v, want %+v", i, r, want)
					}
				}
				// The journal accepts appends again after recovery.
				if err := j.Append(store.JournalRecord{Op: store.OpClaimed, Job: "resumed"}); err != nil {
					t.Fatalf("append after recovery: %v", err)
				}
			})
		}
	}
}

// TestLeaseCrashLeavesRecoverableState: kill during Acquire at every
// boundary; a rebooted worker must always be able to (eventually, via
// TTL takeover) claim the job.
func TestLeaseCrashLeavesRecoverableState(t *testing.T) {
	const ttl = 10 * time.Millisecond
	doAcquire := func(dir string) func(fs store.FS) error {
		return func(fs store.FS) error {
			ls, err := store.NewLeasesFS(fs, dir, "victim", ttl)
			if err != nil {
				return err
			}
			_, err = ls.Acquire("jobx")
			return err
		}
	}
	budget := opBudget(t, doAcquire(t.TempDir()))
	for kill := uint64(1); kill <= budget; kill++ {
		t.Run(fmt.Sprintf("kill@%d", kill), func(t *testing.T) {
			dir := t.TempDir()
			chaos := Wrap(store.OSFS(), Plan{KillAt: kill, TornBytes: 3})
			doAcquire(dir)(chaos)
			if !chaos.Killed() {
				t.Fatalf("kill point %d never fired", kill)
			}
			time.Sleep(2 * ttl) // any half-written lease goes stale
			ls, err := store.NewLeases(dir, "survivor", ttl)
			if err != nil {
				t.Fatal(err)
			}
			l, err := ls.Acquire("jobx")
			if err != nil {
				t.Fatalf("survivor cannot claim after victim's crash: %v", err)
			}
			if !l.Confirm() {
				t.Fatal("survivor's claim does not confirm")
			}
		})
	}
}

// miniResult is one run of the simulated sweep: a deterministic "result"
// derived from its key, standing in for a simulation run.
func miniResult(key string) []byte {
	return []byte("RESULT " + key + " deterministic-bytes\n")
}

// runMiniSweep drives the run protocol cmd/reproduce and ccserve share
// (internal/attempt) — lease, serve from the store when the key is
// committed, otherwise compute and commit — over a fixed run set on the
// given FS, as one process would. There is no journal: the store is the
// frontier. It returns how many runs it computed (vs served from the
// store) before finishing or dying.
func runMiniSweep(fs store.FS, dir, owner string, jobs []string) (computed, cached int, err error) {
	st, err := store.OpenFS(filepath.Join(dir, "store"), fs)
	if err != nil {
		return 0, 0, err
	}
	ls, err := store.NewLeasesFS(fs, dir, owner, 50*time.Millisecond)
	if err != nil {
		return 0, 0, err
	}
	for _, job := range jobs {
		key := job + "-7"
		lease, err := ls.Acquire(key)
		if err != nil {
			if errors.Is(err, store.ErrLeaseHeld) {
				continue // another process owns it
			}
			return computed, cached, err
		}
		// Already committed by an earlier (crashed) attempt? Serve it:
		// zero recomputation.
		if st.Has(key) {
			cached++
		} else {
			if err := st.Put(key, miniResult(key)); err != nil {
				return computed, cached, err
			}
			computed++
		}
		if err := lease.Release(); err != nil {
			return computed, cached, err
		}
	}
	return computed, cached, nil
}

// sweepFingerprint hashes the committed result set: every key and its
// exact payload bytes. Two directories with equal fingerprints hold
// byte-identical results.
func sweepFingerprint(t *testing.T, dir string) string {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, k := range keys {
		payload, err := st.Get(k)
		if err != nil {
			t.Fatalf("fingerprint: %s: %v", k, err)
		}
		fmt.Fprintf(&buf, "%s %x\n", k, payload)
	}
	return buf.String()
}

// TestSweepCrashResumeExactlyOnce is the acceptance drill for the whole
// protocol: run a mini sweep killed at every syscall boundary, resume
// with a fresh process each time, and require (a) the final result set
// is byte-identical to an uninterrupted run, (b) every run's result was
// computed exactly once — a run whose Put committed before the crash is
// served, every other one is computed by exactly one resumed process.
func TestSweepCrashResumeExactlyOnce(t *testing.T) {
	jobs := []string{"mathis_edge", "fig4_edge", "fig8_reno_core", "ext_outage_core", "ext_churn_core"}

	// The uninterrupted reference run.
	refDir := t.TempDir()
	computed, cachedN, err := runMiniSweep(store.OSFS(), refDir, "ref", jobs)
	if err != nil || computed != len(jobs) || cachedN != 0 {
		t.Fatalf("reference sweep: computed=%d cached=%d err=%v", computed, cachedN, err)
	}
	want := sweepFingerprint(t, refDir)

	budget := opBudget(t, func(fs store.FS) error {
		_, _, err := runMiniSweep(fs, t.TempDir(), "probe", jobs)
		return err
	})
	t.Logf("mini sweep crosses %d syscall boundaries", budget)

	for kill := uint64(1); kill <= budget; kill++ {
		plan := Plan{KillAt: kill, TornBytes: 9}
		t.Run(plan.String(), func(t *testing.T) {
			dir := t.TempDir()
			chaos := Wrap(store.OSFS(), plan)
			runMiniSweep(chaos, dir, "worker-crash", jobs) // dies mid-flight
			if !chaos.Killed() {
				t.Fatalf("kill point %d never fired", kill)
			}
			crashedCommits := countCommitted(t, dir, jobs)

			// Resume with fresh processes until the sweep completes; a
			// stalled lease needs one TTL to expire, hence the retry.
			totalComputed := 0
			deadline := time.Now().Add(5 * time.Second)
			for attempt := 0; ; attempt++ {
				c, _, err := runMiniSweep(store.OSFS(), dir, fmt.Sprintf("worker-%d", attempt), jobs)
				if err != nil {
					t.Fatalf("resume attempt %d: %v", attempt, err)
				}
				totalComputed += c
				if got := sweepFingerprint(t, dir); got == want {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("sweep never converged; fingerprint:\n%s\nwant:\n%s",
						sweepFingerprint(t, dir), want)
				}
				time.Sleep(10 * time.Millisecond)
			}
			// Exactly-once: what the crashed process committed is served,
			// and the resumed processes computed exactly the rest.
			if totalComputed != len(jobs)-crashedCommits {
				t.Fatalf("resumed processes computed %d runs; the crashed one committed %d of %d",
					totalComputed, crashedCommits, len(jobs))
			}
		})
	}
}

// countCommitted reports how many of the jobs' keys hold valid records
// after the crash — results that must never be recomputed.
func countCommitted(t *testing.T, dir string, jobs []string) int {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, job := range jobs {
		if st.Has(job + "-7") {
			n++
		}
	}
	return n
}
