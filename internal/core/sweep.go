package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"ccatscale/internal/budget"
	"ccatscale/internal/sim"
	"ccatscale/internal/telemetry"
)

// SweepOptions tunes RunManyCtx beyond plain parallelism.
type SweepOptions struct {
	// Parallelism bounds concurrent runs (≤0 = 1).
	Parallelism int
	// Retries is the number of reduced-fidelity retry attempts after a
	// retryable failure (budget breach or wall-clock stop). Each retry
	// degrades the config one fidelity tier via DegradeTier and waits an
	// exponential backoff first.
	Retries int
	// RetryBackoff is the base backoff before the first retry; it doubles
	// per attempt, plus deterministic jitter seeded from the config index
	// (0 = a small default).
	RetryBackoff time.Duration
	// Budget applies to every config that does not declare its own.
	Budget *budget.Budget
	// Collector applies to every config that does not declare its own;
	// it also receives the sweep's governance events (admission and
	// retry fidelity degradations, as KindDegraded).
	Collector telemetry.Collector
}

// defaultRetryBackoff keeps retry storms apart without stalling tests.
const defaultRetryBackoff = 50 * time.Millisecond

// RunManyCtx runs a plan: it executes several runs concurrently (each
// run is internally single-threaded and deterministic) and returns
// results in input order. Every table of the evaluation runs through it.
//
// Failures do not discard completed work: the returned slice always has
// one entry per config, holding the result for every run that
// succeeded (and the zero RunResult where one failed), and the error
// joins every failure via errors.Join, each tagged with its config
// index. The semaphore is taken before each goroutine is spawned, so a
// 10k-config sweep keeps at most parallelism goroutines in flight
// instead of materializing all 10k up front.
//
// Governance: context cancellation stops queued configs (each skipped
// config's error is its ctx.Err, tagged with the config index;
// already-running simulations finish), a sweep budget gates admission
// (configs whose estimated footprint exceeds it are rejected with a
// structured *budget.BudgetError instead of running and OOMing
// siblings), and retryable failures re-run at reduced fidelity tiers
// with exponential backoff.
func RunManyCtx(ctx context.Context, cfgs []RunConfig, opt SweepOptions) ([]RunResult, error) {
	parallelism := opt.Parallelism
	if parallelism <= 0 {
		parallelism = 1
	}
	backoff := opt.RetryBackoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	results := make([]RunResult, len(cfgs))
	errs := make([]error, len(cfgs))
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i := range cfgs {
		cfg := cfgs[i]
		if cfg.Budget == nil {
			cfg.Budget = opt.Budget
		}
		if cfg.Collector == nil {
			cfg.Collector = opt.Collector
		}
		// Admission control: price the config before committing a slot.
		// When retries permit, an over-budget config is degraded tier by
		// tier until the estimate fits — backpressure by reduced
		// fidelity instead of outright rejection.
		if !cfg.Budget.Unlimited() {
			admitted := cfg.Fidelity
			berr := EstimateConfig(cfg).Check(cfg.Budget, cfg.horizon())
			for r := 0; berr != nil && r < opt.Retries; r++ {
				cfg = DegradeTier(cfg, cfg.Fidelity+1)
				berr = EstimateConfig(cfg).Check(cfg.Budget, cfg.horizon())
			}
			if berr != nil {
				errs[i] = fmt.Errorf("config %d: %w", i, berr)
				continue
			}
			if cfg.Fidelity > admitted && cfg.Collector != nil {
				cfg.Collector.Emit(telemetry.Event{
					Kind: telemetry.KindDegraded, Flow: -1,
					Label: "admission", A: int64(cfg.Fidelity), B: int64(i),
				})
			}
		}
		// Checked separately from the select below: with a full semaphore
		// and a cancelled context both cases would be ready and the
		// choice random.
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("config %d: %w", i, err)
			continue
		}
		select {
		case <-ctx.Done():
			errs[i] = fmt.Errorf("config %d: %w", i, ctx.Err())
			continue
		case sem <- struct{}{}: // bound spawned goroutines, not just running ones
		}
		wg.Add(1)
		go func(i int, cfg RunConfig) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := runWithRetry(ctx, i, cfg, opt.Retries, backoff)
			results[i] = res
			if err != nil {
				errs[i] = fmt.Errorf("config %d: %w", i, err)
			}
		}(i, cfg)
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// runWithRetry executes one config, retrying retryable failures at
// progressively degraded fidelity tiers. Backoff uses full jitter
// (uniform in [0, base<<attempt)) derived from the config's own seed,
// so the schedule is reproducible run to run, yet two configs whose
// first retries collide in time draw independent waits and do not
// re-collide attempt after attempt the way stepped exponential backoff
// would.
func runWithRetry(ctx context.Context, idx int, cfg RunConfig, retries int, backoff time.Duration) (RunResult, error) {
	usage := budget.Usage{}
	for attempt := 0; ; attempt++ {
		res, err := RunCtx(ctx, cfg)
		if err == nil {
			if usage.Runs > 0 { // fold failed attempts' cost into the result
				usage.Merge(res.Usage)
				res.Usage = usage
			}
			return res, nil
		}
		if attempt >= retries || !retryable(err) || ctx.Err() != nil {
			return res, err
		}
		var re *RunError
		if errors.As(err, &re) {
			usage.Merge(budget.Usage{Events: re.Events, Wall: re.Wall})
		}
		timer := time.NewTimer(retryDelay(cfg.Seed, idx, attempt, backoff))
		select {
		case <-ctx.Done():
			timer.Stop()
			return res, err
		case <-timer.C:
		}
		cfg = DegradeTier(cfg, cfg.Fidelity+1)
		if cfg.Collector != nil {
			cfg.Collector.Emit(telemetry.Event{
				Kind: telemetry.KindDegraded, Flow: -1,
				Label: "retry", A: int64(cfg.Fidelity), B: int64(idx),
			})
		}
	}
}

// retryDelay computes the wait before retry attempt (0-based) of the
// config at idx in its sweep. Full jitter: a fresh RNG keyed by the
// config's simulation seed, its sweep position, and the attempt number
// draws uniformly from [0, backoff<<attempt), so the schedule is
// deterministic per config yet decorrelated across configs — the
// property TestRetryDelayDecorrelatesCollidingConfigs pins down.
func retryDelay(seed uint64, idx, attempt int, backoff time.Duration) time.Duration {
	shift := uint(attempt)
	if shift > 20 { // cap the window (~50ms<<20 ≈ 15 h); avoids overflow too
		shift = 20
	}
	ceil := int64(backoff) << shift
	if ceil <= 0 {
		return 0
	}
	rng := sim.NewRNG(0x9e3779b97f4a7c15 ^ seed ^ uint64(idx)<<32 ^ uint64(attempt)<<56)
	return time.Duration(rng.Int63n(ceil))
}

// retryable reports whether a failure is worth a reduced-fidelity
// retry: budget breaches and wall-clock watchdog stops are (less
// retained state or a shorter window can fit), panics and invariant
// violations are not (replaying a deterministic bug at lower fidelity
// just hides it).
func retryable(err error) bool {
	var re *RunError
	if !errors.As(err, &re) {
		return false
	}
	return re.Budget != nil || strings.HasPrefix(re.Reason, "wall-clock")
}
