package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"ccatscale/internal/core"
)

// progressTracker renders a live sweep status line to stderr about once
// a second: jobs done/running/rejected/failed, the current job, and an
// ETA extrapolated from the budget estimator's predicted cost of each
// run. Only runs this invocation computes are weighed — a run served
// from the store costs no wall and would make the ETA too short. It is
// display-only — nothing it computes feeds back into the sweep.
type progressTracker struct {
	w     io.Writer
	start time.Time

	mu          sync.Mutex
	total       int
	weights     map[string][]int64 // job → per-run weight
	totalWeight int64
	doneWeight  int64
	done        int
	rejected    int
	failed      int
	current     string

	stop chan struct{}
	wg   sync.WaitGroup
}

// runWeight prices one run with the same estimator admission control
// uses: its predicted processed-event count, so its RTTs, CCA mix,
// window and arrivals all count.
func runWeight(cfg core.RunConfig) int64 {
	return max(core.EstimateConfig(cfg).Processed, 1)
}

// newProgressTracker starts the ticker goroutine over the plans that
// will run, weighing every run the store does not hold yet. Call
// finish() to stop it and print the summary.
func newProgressTracker(w io.Writer, plans []plan) *progressTracker {
	pt := &progressTracker{
		w:       w,
		start:   time.Now(),
		total:   len(plans),
		weights: make(map[string][]int64, len(plans)),
		stop:    make(chan struct{}),
	}
	for _, p := range plans {
		ws := make([]int64, len(p.cfgs))
		for i, cfg := range p.cfgs {
			if !p.stored[i] {
				ws[i] = runWeight(cfg)
				pt.totalWeight += ws[i]
			}
		}
		pt.weights[p.name] = ws
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

// runStarted records the job now running.
func (pt *progressTracker) runStarted(name string) {
	pt.mu.Lock()
	pt.current = name
	pt.mu.Unlock()
}

// runEnded moves run i of the named job's weight to done, or — when
// another process had committed it meanwhile — out of the total.
func (pt *progressTracker) runEnded(name string, i int, served bool) {
	pt.mu.Lock()
	if w := pt.weights[name][i]; served {
		pt.totalWeight -= w
	} else {
		pt.doneWeight += w
	}
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
		line += fmt.Sprintf(", running %s", pt.current)
	}
	line += fmt.Sprintf(", elapsed %s", elapsed)
	if pt.doneWeight > 0 && pt.doneWeight < pt.totalWeight {
		eta := time.Duration(float64(time.Since(pt.start)) *
			float64(pt.totalWeight-pt.doneWeight) / float64(pt.doneWeight))
		line += fmt.Sprintf(", eta %s", eta.Round(time.Second))
	}
	fmt.Fprintln(pt.w, line)
}
