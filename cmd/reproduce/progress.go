package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"ccatscale/internal/core"
)

// progressTracker renders a live sweep status line to stderr about once
// a second: jobs done/running/rejected/failed, the current job's
// fidelity tier, and an ETA extrapolated from the budget estimator's
// predicted per-job cost. It is display-only — nothing it computes
// feeds back into the sweep.
type progressTracker struct {
	w     io.Writer
	start time.Time

	mu          sync.Mutex
	total       int
	weights     map[string]int64
	totalWeight int64
	doneWeight  int64
	done        int
	rejected    int
	failed      int
	current     string
	tier        int

	stop chan struct{}
	wg   sync.WaitGroup
}

// jobWeight prices one job with the same estimator admission control
// uses: the predicted processed-event counts summed over the plan the
// job runs, so its RTTs, CCA mix, window and arrivals all count.
func jobWeight(j job) int64 {
	var total int64
	for _, cfg := range j.entry.Configs(j.setting, j.args) {
		total += core.EstimateConfig(cfg).Processed
	}
	if total <= 0 {
		total = 1
	}
	return total
}

// newProgressTracker starts the ticker goroutine over the jobs that
// will actually run. Call finish() to stop it and print the summary.
func newProgressTracker(w io.Writer, jobs []job) *progressTracker {
	pt := &progressTracker{
		w:       w,
		start:   time.Now(),
		total:   len(jobs),
		weights: make(map[string]int64, len(jobs)),
		stop:    make(chan struct{}),
	}
	for _, j := range jobs {
		wt := jobWeight(j)
		pt.weights[j.name] = wt
		pt.totalWeight += wt
	}
	pt.wg.Add(1)
	go func() {
		defer pt.wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-pt.stop:
				return
			case <-tick.C:
				pt.print()
			}
		}
	}()
	return pt
}

// jobStarted records the job now running and its fidelity tier.
func (pt *progressTracker) jobStarted(name string, tier int) {
	pt.mu.Lock()
	pt.current, pt.tier = name, tier
	pt.mu.Unlock()
}

// jobEnded records one job's outcome ("done", "rejected", "failed").
func (pt *progressTracker) jobEnded(name, status string) {
	pt.mu.Lock()
	switch status {
	case "rejected":
		pt.rejected++
	case "failed":
		pt.failed++
	default:
		pt.done++
	}
	pt.doneWeight += pt.weights[name]
	if pt.current == name {
		pt.current = ""
	}
	pt.mu.Unlock()
}

// finish stops the ticker and prints a final summary line.
func (pt *progressTracker) finish() {
	close(pt.stop)
	pt.wg.Wait()
	pt.print()
}

func (pt *progressTracker) print() {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	elapsed := time.Since(pt.start).Round(time.Second)
	line := fmt.Sprintf("progress: %d/%d done", pt.done, pt.total)
	if pt.rejected > 0 {
		line += fmt.Sprintf(", %d rejected", pt.rejected)
	}
	if pt.failed > 0 {
		line += fmt.Sprintf(", %d failed", pt.failed)
	}
	if pt.current != "" {
		line += fmt.Sprintf(", running %s (tier %d)", pt.current, pt.tier)
	}
	line += fmt.Sprintf(", elapsed %s", elapsed)
	if pt.doneWeight > 0 && pt.doneWeight < pt.totalWeight {
		eta := time.Duration(float64(time.Since(pt.start)) *
			float64(pt.totalWeight-pt.doneWeight) / float64(pt.doneWeight))
		line += fmt.Sprintf(", eta %s", eta.Round(time.Second))
	}
	fmt.Fprintln(pt.w, line)
}
