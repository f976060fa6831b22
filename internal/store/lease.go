package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// leaseDir is the subdirectory of a sweep's output directory holding
// one lease file per claimed job.
const leaseDir = "leases"

// ErrLeaseHeld reports a job currently claimed by a live worker.
var ErrLeaseHeld = errors.New("store: lease held")

// leaseBody is what a lease file contains: enough to name the holder in
// error messages and takeover logs. Liveness is the file's mtime — the
// holder touches it on every heartbeat — not the body, so heartbeating
// is one utimes call, not a rewrite.
type leaseBody struct {
	Owner string `json:"owner"`
	PID   int    `json:"pid"`
	Since string `json:"since"`
}

// Lease is a claim on one job, held by one worker. The holder must
// Heartbeat more often than the TTL other workers acquire with, and
// Release when done.
type Lease struct {
	fs    FS
	path  string
	owner string
}

// Leases manages the lease directory for one sweep.
type Leases struct {
	fs    FS
	dir   string
	owner string
	ttl   time.Duration
	// now is a clock seam for tests; time.Now outside them.
	now func() time.Time
}

// NewLeases opens the lease space under outDir for a worker identified
// by owner (unique per process — e.g. host:pid plus a random suffix).
// ttl is the staleness deadline: a lease whose heartbeat mtime is older
// than ttl may be taken over by another worker.
func NewLeases(outDir, owner string, ttl time.Duration) (*Leases, error) {
	return NewLeasesFS(OSFS(), outDir, owner, ttl)
}

// NewLeasesFS is NewLeases on an explicit FS.
func NewLeasesFS(fs FS, outDir, owner string, ttl time.Duration) (*Leases, error) {
	if owner == "" {
		return nil, errors.New("store: empty lease owner")
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("store: lease ttl %v must be positive", ttl)
	}
	dir := filepath.Join(outDir, leaseDir)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Leases{fs: fs, dir: dir, owner: owner, ttl: ttl, now: time.Now}, nil
}

// ProcessOwner names this process for lease ownership: host-pid, with
// the host degrading to a constant when the kernel will not say.
func ProcessOwner() string {
	h, err := os.Hostname()
	if err != nil || h == "" {
		h = "host"
	}
	return fmt.Sprintf("%s-%d", h, os.Getpid())
}

// leasePath maps a job name to its lease file. Job names are flat
// identifiers; path separators are rejected at Acquire.
func (ls *Leases) leasePath(job string) string {
	return filepath.Join(ls.dir, job+".lease")
}

// Acquire claims job for this worker. It succeeds by creating the lease
// file exclusively, or by taking over a lease whose heartbeat is older
// than the TTL (the previous holder is presumed dead). A live lease
// returns ErrLeaseHeld wrapped with the holder's identity.
//
// Takeover admits exactly one winner among racing claimants: the
// takeover is arbitrated by an O_EXCL guard file, so of N workers that
// all see the same stale lease, the one that creates the guard renames
// it into place and every other gets a clean ErrLeaseHeld. The
// exactly-once property matters for supervision — a fleet restarting
// after a crash must not have two workers believing they own the same
// job's lease slot even transiently. The read-back Confirm() after the
// rename stays as a second line of defense (and remains the holder's
// mid-job staleness check). A guard whose creator crashed mid-takeover
// ages out on the same TTL as the lease itself.
func (ls *Leases) Acquire(job string) (*Lease, error) {
	return ls.acquire(job, 0)
}

// acquire is Acquire with a bounded retry depth for the windows where a
// concurrent release or an aged-out guard invites one more attempt.
func (ls *Leases) acquire(job string, depth int) (*Lease, error) {
	if strings.ContainsAny(job, "/\\") {
		return nil, fmt.Errorf("store: job name %q contains a path separator", job)
	}
	const maxDepth = 4
	if depth > maxDepth {
		return nil, fmt.Errorf("%w: job %q contended beyond %d attempts", ErrLeaseHeld, job, maxDepth)
	}
	path := ls.leasePath(job)
	body, err := json.Marshal(leaseBody{
		Owner: ls.owner,
		PID:   os.Getpid(),
		Since: ls.now().UTC().Format(time.RFC3339),
	})
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	// Fast path: exclusive create wins the job outright.
	f, err := ls.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err == nil {
		_, werr := f.Write(body)
		cerr := f.Close()
		if werr != nil || cerr != nil {
			ls.fs.Remove(path)
			if werr != nil {
				return nil, werr
			}
			return nil, cerr
		}
		return &Lease{fs: ls.fs, path: path, owner: ls.owner}, nil
	}
	if !os.IsExist(err) {
		return nil, err
	}
	// Slow path: a lease exists. Stale (heartbeat older than TTL) means
	// the holder died without releasing; take it over through the guard.
	fi, err := ls.fs.Stat(path)
	if os.IsNotExist(err) {
		return ls.acquire(job, depth+1) // released between create and stat; retry
	}
	if err != nil {
		return nil, err
	}
	if age := ls.now().Sub(fi.ModTime()); age < ls.ttl {
		holder := "unknown"
		if data, rerr := ls.fs.ReadFile(path); rerr == nil {
			var b leaseBody
			if json.Unmarshal(data, &b) == nil && b.Owner != "" {
				holder = b.Owner
			}
		}
		return nil, fmt.Errorf("%w: job %q by %s (heartbeat %v ago, ttl %v)",
			ErrLeaseHeld, job, holder, age.Round(time.Millisecond), ls.ttl)
	}
	// Takeover arbitration: exactly one racer creates the guard. Losers
	// see EEXIST and stand down cleanly; the winner renames the guard
	// over the stale lease. A guard left by a claimant that crashed
	// between create and rename ages out on the TTL like any lease.
	guard := path + ".takeover"
	gf, err := ls.fs.OpenFile(guard, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if os.IsExist(err) {
		if gfi, serr := ls.fs.Stat(guard); serr == nil && ls.now().Sub(gfi.ModTime()) >= ls.ttl {
			ls.fs.Remove(guard)
			return ls.acquire(job, depth+1)
		}
		return nil, fmt.Errorf("%w: job %q takeover already in progress", ErrLeaseHeld, job)
	}
	if err != nil {
		return nil, err
	}
	_, werr := gf.Write(body)
	cerr := gf.Close()
	if werr != nil || cerr != nil {
		ls.fs.Remove(guard)
		if werr != nil {
			return nil, werr
		}
		return nil, cerr
	}
	// Re-check staleness under the guard: the holder may have heartbeat
	// between our first stat and the guard creation. Giving the claim up
	// here keeps a merely-stalled holder alive instead of usurping it.
	if fi2, serr := ls.fs.Stat(path); serr == nil && ls.now().Sub(fi2.ModTime()) < ls.ttl {
		ls.fs.Remove(guard)
		return nil, fmt.Errorf("%w: job %q holder revived during takeover", ErrLeaseHeld, job)
	}
	if err := ls.fs.Rename(guard, path); err != nil {
		ls.fs.Remove(guard)
		return nil, err
	}
	l := &Lease{fs: ls.fs, path: path, owner: ls.owner}
	// Read back: the guard makes a second winner impossible, but a
	// confirm here is cheap and catches filesystems with weaker rename
	// semantics than POSIX promises.
	if !l.confirm() {
		return nil, fmt.Errorf("%w: job %q lost takeover race", ErrLeaseHeld, job)
	}
	return l, nil
}

// AcquireWait is Acquire that waits out a holder: while the lease is
// held it retries every poll, so a crashed predecessor's claim is taken
// over as soon as it goes stale. It gives up when ctx ends, returning
// the last ErrLeaseHeld-wrapping error; any other error returns at once.
// A free lease is claimed on the first try, whatever ctx says.
func (ls *Leases) AcquireWait(ctx context.Context, job string, poll time.Duration) (*Lease, error) {
	for {
		l, err := ls.Acquire(job)
		if err == nil || !errors.Is(err, ErrLeaseHeld) {
			return l, err
		}
		select {
		case <-ctx.Done():
			return nil, err
		case <-time.After(poll):
		}
	}
}

// SlotName maps a job name and a hedge slot to the lease name the
// attempt claims: slot 0 (the primary) uses the job name itself —
// compatible with every non-hedged claimant — and hedge slots suffix
// it, so a straggler's duplicate run never contends with the primary's
// lease while both race toward the store's idempotent commit.
func SlotName(job string, slot int) string {
	if slot <= 0 {
		return job
	}
	return fmt.Sprintf("%s~h%d", job, slot)
}

// ReleaseOwned removes job's lease if (and only if) it is held by
// owner. It is the supervisor's cleanup path for a worker it has
// already reaped: the holder is known dead — waitpid said so — so
// deleting its lease immediately instead of waiting out the TTL lets
// the respawned attempt start at once. Removing a lease the dead
// worker did not hold would sabotage a live claimant, hence the owner
// check. A lease that does not exist, or changed hands already, is
// success: the goal is only that the dead owner's claim is gone.
func (ls *Leases) ReleaseOwned(job, owner string) error {
	if strings.ContainsAny(job, "/\\") {
		return fmt.Errorf("store: job name %q contains a path separator", job)
	}
	path := ls.leasePath(job)
	data, err := ls.fs.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var b leaseBody
	if json.Unmarshal(data, &b) != nil || b.Owner != owner {
		return nil
	}
	if err := ls.fs.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// DefaultHeartbeat returns the heartbeat interval used when the caller
// does not configure one: ttl/6, which keeps three missed beats inside
// the safety margin ValidateHeartbeat enforces.
func DefaultHeartbeat(ttl time.Duration) time.Duration {
	return ttl / 6
}

// ValidateHeartbeat rejects heartbeat/TTL pairs that make takeover
// races likely. The interval must be positive and strictly under a
// third of the TTL, so a holder can miss two consecutive beats (GC
// pause, CPU starvation, fsync stall) and still refresh before another
// worker declares it dead.
func ValidateHeartbeat(heartbeat, ttl time.Duration) error {
	if ttl <= 0 {
		return fmt.Errorf("store: lease ttl %v must be positive", ttl)
	}
	if heartbeat <= 0 {
		return fmt.Errorf("store: lease heartbeat %v must be positive", heartbeat)
	}
	if 3*heartbeat >= ttl {
		return fmt.Errorf("store: lease heartbeat %v must be under a third of ttl %v (got ratio %.2f); a single stalled beat would invite takeover",
			heartbeat, ttl, float64(heartbeat)/float64(ttl))
	}
	return nil
}

// Heartbeat advances the lease's liveness clock (its mtime). Holders
// must call it at least every ttl/2 during long jobs or risk takeover.
func (l *Lease) Heartbeat() error {
	now := time.Now()
	return l.fs.Chtimes(l.path, now, now)
}

// KeepAlive heartbeats the lease every interval from its own goroutine
// for as long as the holder works. A failed heartbeat, or a Confirm
// that finds another owner, means the claim is gone: lost is called
// once and the beating ends. The returned stop ends it too, waits for
// the goroutine, and may be called more than once; lost never runs
// after stop returns.
func (l *Lease) KeepAlive(interval time.Duration, lost func()) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if l.Heartbeat() != nil || !l.confirm() {
					lost()
					return
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

// Confirm re-reads the lease and reports whether this worker still
// holds it — false means another worker took it over (this process
// stalled past the TTL) and any result must be committed through the
// idempotent store only, never trusted as exclusive.
func (l *Lease) Confirm() bool { return l.confirm() }

func (l *Lease) confirm() bool {
	data, err := l.fs.ReadFile(l.path)
	if err != nil {
		return false
	}
	var b leaseBody
	if err := json.Unmarshal(data, &b); err != nil {
		return false
	}
	return b.Owner == l.owner
}

// Release drops the claim. Releasing a lease lost to takeover is a
// no-op — the file now belongs to the new holder and must survive.
func (l *Lease) Release() error {
	if !l.confirm() {
		return nil
	}
	err := l.fs.Remove(l.path)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}
