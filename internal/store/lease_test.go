package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock lets lease tests move time without sleeping. Heartbeats
// still use the real clock (they only touch mtime forward, which reads
// as "fresh" under any later fake now).
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestLeases(t *testing.T, dir, owner string, ttl time.Duration, clk *fakeClock) *Leases {
	t.Helper()
	ls, err := NewLeases(dir, owner, ttl)
	if err != nil {
		t.Fatal(err)
	}
	if clk != nil {
		ls.now = clk.now
	}
	return ls
}

func TestLeaseAcquireConflictRelease(t *testing.T) {
	dir := t.TempDir()
	a := newTestLeases(t, dir, "worker-a", time.Hour, nil)
	b := newTestLeases(t, dir, "worker-b", time.Hour, nil)

	la, err := a.Acquire("fig4_edge")
	if err != nil {
		t.Fatal(err)
	}
	if !la.Confirm() {
		t.Fatal("holder cannot confirm its own lease")
	}
	if _, err := b.Acquire("fig4_edge"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("second worker acquired a live lease: %v", err)
	}
	// Distinct jobs do not conflict.
	lb, err := b.Acquire("fig5_core")
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.Release(); err != nil {
		t.Fatal(err)
	}
	if err := la.Release(); err != nil {
		t.Fatal(err)
	}
	// Released: anyone can claim.
	if _, err := b.Acquire("fig4_edge"); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

func TestLeaseRejectsBadConfig(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewLeases(dir, "", time.Hour); err == nil {
		t.Fatal("empty owner accepted")
	}
	if _, err := NewLeases(dir, "w", 0); err == nil {
		t.Fatal("zero ttl accepted")
	}
	ls := newTestLeases(t, dir, "w", time.Hour, nil)
	if _, err := ls.Acquire("../escape"); err == nil {
		t.Fatal("path-hostile job name accepted")
	}
}

// TestLeaseTakeoverExactlyOnce is the satellite acceptance drill:
// worker A claims a job and stops heartbeating; worker B takes the
// lease over after the TTL; both workers then commit a result — and the
// store shows exactly one committed result, because the duplicate
// commit is a no-op by content address.
func TestLeaseTakeoverExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Now()}
	const ttl = 50 * time.Millisecond
	a := newTestLeases(t, dir, "worker-a", ttl, clk)
	b := newTestLeases(t, dir, "worker-b", ttl, clk)

	st, err := Open(dir + "/store")
	if err != nil {
		t.Fatal(err)
	}

	const jobName = "fig8_reno_core"
	const key = "1a2b3c-7" // content address: config hash + seed

	// Worker A claims the job… then stalls (no heartbeats). mtime ages
	// past the TTL.
	la, err := a.Acquire(jobName)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * ttl) // let the real mtime age past the TTL
	clk.advance(2 * ttl)

	// Worker B sees the stale heartbeat and takes over.
	lb, err := b.Acquire(jobName)
	if err != nil {
		t.Fatalf("takeover after stale heartbeat: %v", err)
	}
	if la.Confirm() {
		t.Fatal("worker A still confirms a lease that was taken over")
	}
	if !lb.Confirm() {
		t.Fatal("worker B cannot confirm its takeover")
	}

	// B commits its result.
	resultB := []byte("deterministic result bytes")
	if err := st.Put(key, resultB); err != nil {
		t.Fatal(err)
	}

	// A wakes up late and finishes the same (deterministic) work. Its
	// commit must be a no-op, and its Release must not disturb B.
	if err := st.Put(key, resultB); err != nil {
		t.Fatal(err)
	}
	if err := la.Release(); err != nil {
		t.Fatal(err)
	}
	if !lb.Confirm() {
		t.Fatal("stale worker's release destroyed the new holder's lease")
	}
	if err := lb.Release(); err != nil {
		t.Fatal(err)
	}

	// Exactly one committed result: B's.
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("store keys = %v, want exactly [%s]", keys, key)
	}
	got, err := st.Get(key)
	if err != nil || string(got) != string(resultB) {
		t.Fatalf("committed result: %q, %v", got, err)
	}
}

// TestLeaseHeartbeatPreventsTakeover: a live worker that heartbeats
// keeps its claim past the nominal TTL.
func TestLeaseHeartbeatPreventsTakeover(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Now()}
	a := newTestLeases(t, dir, "worker-a", time.Hour, clk)
	b := newTestLeases(t, dir, "worker-b", time.Hour, clk)

	la, err := a.Acquire("job")
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Hour) // past the TTL…
	if err := la.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	// …but Heartbeat has reset the mtime to the real now, and the fake
	// clock only runs ahead of it, so for worker B the lease would look
	// stale without the heartbeat. Re-derive: set B's view to just past
	// real-now so the heartbeat reads fresh.
	clk.t = time.Now().Add(time.Minute)
	if _, err := b.Acquire("job"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("heartbeated lease taken over: %v", err)
	}
}

func TestValidateHeartbeat(t *testing.T) {
	cases := []struct {
		hb, ttl time.Duration
		ok      bool
	}{
		{time.Second, 10 * time.Second, true},
		{time.Second, 3100 * time.Millisecond, true}, // 3·hb just under ttl
		{time.Second, 3 * time.Second, false},        // exactly ttl/3: rejected
		{2 * time.Second, 3 * time.Second, false},
		{0, 10 * time.Second, false},
		{-time.Second, 10 * time.Second, false},
		{time.Second, 0, false},
	}
	for _, c := range cases {
		err := ValidateHeartbeat(c.hb, c.ttl)
		if c.ok && err != nil {
			t.Errorf("ValidateHeartbeat(%v, %v) = %v, want nil", c.hb, c.ttl, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ValidateHeartbeat(%v, %v) = nil, want error", c.hb, c.ttl)
		}
	}
}

// TestLeaseTakeoverRaceExactlyOneWinner is the satellite drill for
// concurrent stale-lease takeover: two claimants race the same TTL
// expiry at the same instant. The O_EXCL takeover guard must let
// exactly one win; the loser must see a clean ErrLeaseHeld — not an
// I/O error, not a second "win". Repeated rounds give the race a fair
// chance to interleave every way the scheduler can produce.
func TestLeaseTakeoverRaceExactlyOneWinner(t *testing.T) {
	const ttl = 100 * time.Millisecond
	for round := 0; round < 25; round++ {
		dir := t.TempDir()
		dead := newTestLeases(t, dir, "worker-dead", ttl, nil)
		if _, err := dead.Acquire("job"); err != nil {
			t.Fatal(err)
		}
		// Age the dead holder's heartbeat past the TTL without sleeping.
		old := time.Now().Add(-time.Hour)
		if err := os.Chtimes(filepath.Join(dir, leaseDir, "job.lease"), old, old); err != nil {
			t.Fatal(err)
		}

		b := newTestLeases(t, dir, "worker-b", ttl, nil)
		c := newTestLeases(t, dir, "worker-c", ttl, nil)
		type res struct {
			lease *Lease
			err   error
		}
		results := make([]res, 2)
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(2)
		for i, ls := range []*Leases{b, c} {
			go func(i int, ls *Leases) {
				defer done.Done()
				start.Wait()
				l, err := ls.Acquire("job")
				results[i] = res{l, err}
			}(i, ls)
		}
		start.Done()
		done.Wait()

		winners := 0
		for i, r := range results {
			if r.err == nil {
				winners++
				if !r.lease.Confirm() {
					t.Fatalf("round %d: claimant %d won but cannot confirm", round, i)
				}
				continue
			}
			if !errors.Is(r.err, ErrLeaseHeld) {
				t.Fatalf("round %d: loser got %v, want a clean ErrLeaseHeld", round, r.err)
			}
		}
		if winners != 1 {
			t.Fatalf("round %d: %d takeover winners, want exactly 1", round, winners)
		}
	}
}

// TestLeaseTakeoverGuardAgesOut: a claimant that crashed between
// creating the takeover guard and renaming it must not wedge the job
// forever — the guard goes stale on the same TTL and the next claimant
// clears it.
func TestLeaseTakeoverGuardAgesOut(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Now()}
	const ttl = 50 * time.Millisecond
	a := newTestLeases(t, dir, "worker-a", ttl, clk)
	if _, err := a.Acquire("job"); err != nil {
		t.Fatal(err)
	}
	// Simulate a crashed mid-takeover claimant: a guard file exists.
	guard := filepath.Join(dir, leaseDir, "job.lease.takeover")
	if err := os.WriteFile(guard, []byte(`{"owner":"worker-crashed"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	for _, f := range []string{filepath.Join(dir, leaseDir, "job.lease"), guard} {
		if err := os.Chtimes(f, old, old); err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(time.Hour)
	b := newTestLeases(t, dir, "worker-b", ttl, clk)
	lb, err := b.Acquire("job")
	if err != nil {
		t.Fatalf("takeover with stale guard present: %v", err)
	}
	if !lb.Confirm() {
		t.Fatal("winner cannot confirm after clearing a stale guard")
	}
	// A *fresh* guard (live takeover in progress) must stay a rejection.
	// Judged on the real clock: the lease is stale, the guard is not.
	if err := lb.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire("other"); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(filepath.Join(dir, leaseDir, "other.lease"), old, old); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, leaseDir, "other.lease.takeover"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := newTestLeases(t, dir, "worker-c", ttl, nil)
	if _, err := c.Acquire("other"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("fresh guard ignored: %v", err)
	}
}

// TestReleaseOwned: the supervisor's cleanup for a reaped worker
// removes exactly that worker's lease — never a live successor's.
func TestReleaseOwned(t *testing.T) {
	dir := t.TempDir()
	a := newTestLeases(t, dir, "worker-a", time.Hour, nil)
	sup := newTestLeases(t, dir, "supervisor", time.Hour, nil)
	if _, err := a.Acquire("job"); err != nil {
		t.Fatal(err)
	}
	// Wrong owner: no-op, lease survives.
	if err := sup.ReleaseOwned("job", "worker-b"); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Acquire("job"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("lease vanished after wrong-owner release: %v", err)
	}
	// Right owner: lease removed, job immediately claimable.
	if err := sup.ReleaseOwned("job", "worker-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Acquire("job"); err != nil {
		t.Fatalf("acquire after owned release: %v", err)
	}
	// Nonexistent lease: success.
	if err := sup.ReleaseOwned("ghost", "worker-a"); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultHeartbeatValidates(t *testing.T) {
	for _, ttl := range []time.Duration{time.Second, 10 * time.Second, time.Hour} {
		hb := DefaultHeartbeat(ttl)
		if err := ValidateHeartbeat(hb, ttl); err != nil {
			t.Errorf("DefaultHeartbeat(%v) = %v fails its own validation: %v", ttl, hb, err)
		}
	}
}

// TestKeepAliveReportsLossOnce: the keep-alive notices a takeover on
// its next beat, says so exactly once, and is silent after stop —
// which may be called any number of times.
func TestKeepAliveReportsLossOnce(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Now()}
	a := newTestLeases(t, dir, "worker-a", time.Hour, nil)
	b := newTestLeases(t, dir, "worker-b", time.Hour, clk)

	la, err := a.Acquire("job")
	if err != nil {
		t.Fatal(err)
	}
	var losses atomic.Int32
	lost := make(chan struct{}, 1)
	stop := la.KeepAlive(time.Millisecond, func() {
		losses.Add(1)
		select {
		case lost <- struct{}{}:
		default:
		}
	})
	// While A beats and nobody interferes, nothing is lost.
	time.Sleep(10 * time.Millisecond)
	if n := losses.Load(); n != 0 {
		t.Fatalf("keep-alive reported %d losses on a lease nobody touched", n)
	}
	// B's clock runs hours ahead, so A's fresh beats read stale to it.
	clk.advance(2 * time.Hour)
	if _, err := b.Acquire("job"); err != nil {
		t.Fatalf("takeover: %v", err)
	}
	select {
	case <-lost:
	case <-time.After(5 * time.Second):
		t.Fatal("keep-alive never noticed the takeover")
	}
	stop()
	stop()
	if n := losses.Load(); n != 1 {
		t.Fatalf("loss reported %d times, want once", n)
	}

	// A stopped keep-alive stays silent whatever happens to the file.
	lc, err := a.Acquire("other")
	if err != nil {
		t.Fatal(err)
	}
	stop = lc.KeepAlive(time.Millisecond, func() { losses.Add(1) })
	stop()
	if _, err := b.Acquire("other"); err != nil {
		t.Fatalf("takeover: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	stop()
	if n := losses.Load(); n != 1 {
		t.Fatalf("keep-alive reported a loss after stop (total %d)", n)
	}
}

// TestAcquireWait: a free lease is claimed without consulting the
// context or sleeping, a stale holder is waited out and taken over,
// and a live holder outlasts the context with ErrLeaseHeld.
func TestAcquireWait(t *testing.T) {
	dir := t.TempDir()
	a := newTestLeases(t, dir, "worker-a", 200*time.Millisecond, nil)
	b := newTestLeases(t, dir, "worker-b", 200*time.Millisecond, nil)

	// Free: an ended context and an hour's poll must not matter.
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.AcquireWait(ended, "job", time.Hour); err != nil {
		t.Fatalf("free lease under an ended context: %v", err)
	}

	// Held, and A never beats: B polls until the TTL makes it stale.
	lb, err := b.AcquireWait(context.Background(), "job", 5*time.Millisecond)
	if err != nil {
		t.Fatalf("waiting out a stale holder: %v", err)
	}
	if !lb.Confirm() {
		t.Fatal("takeover winner cannot confirm its lease")
	}

	// Held by a holder still inside its TTL: the wait ends with the
	// context.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := a.AcquireWait(ctx, "job", 5*time.Millisecond); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("wait on a live holder ended with %v, want ErrLeaseHeld", err)
	}
	if ctx.Err() == nil {
		t.Fatal("AcquireWait gave up before its context ended")
	}

	// Anything but ErrLeaseHeld returns at once.
	if _, err := a.AcquireWait(context.Background(), "../escape", time.Hour); err == nil || errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("path-hostile name: %v", err)
	}
}

func TestProcessOwner(t *testing.T) {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "host"
	}
	if got, want := ProcessOwner(), host+"-"+strconv.Itoa(os.Getpid()); got != want {
		t.Fatalf("ProcessOwner() = %q, want %q", got, want)
	}
}
