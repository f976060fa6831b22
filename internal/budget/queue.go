package budget

import (
	"fmt"
	"sync"
	"time"
)

// QueueError reports a queue-admission rejection: the pool is full,
// either by slot count or because adding the candidate's estimated
// footprint would push the aggregate past the pool's budget. RetryAfter
// is the server's guess at when capacity frees up — derived from the
// wall-clock already reserved, divided across the workers draining it —
// so clients can back off honestly instead of hammering.
type QueueError struct {
	Kind       Kind          `json:"kind"`
	Limit      int64         `json:"limit"`
	Observed   int64         `json:"observed"`
	RetryAfter time.Duration `json:"retryAfterNs"`
}

// KindSlots marks a rejection by queue depth rather than by any
// resource limit: every slot is occupied.
const KindSlots Kind = "queue-slots"

func (e *QueueError) Error() string {
	return fmt.Sprintf("budget: queue full: %s observed %d > limit %d (retry after %v)",
		e.Kind, e.Observed, e.Limit, e.RetryAfter.Round(time.Second))
}

// Pool bounds the aggregate estimated footprint of queued-plus-running
// work. It is backpressure, not enforcement: admission sums the
// estimator's predictions and refuses new work past the limit, while
// actual in-flight enforcement stays with each run's own Budget. Two
// bounds apply — a slot count (hard cap on queued jobs, which bounds
// the queue and status-map memory) and an optional Budget whose
// HeapBytes/Events/TracePoints/Wall fields cap the summed estimates.
//
// All methods are safe for concurrent use.
type Pool struct {
	mu          sync.Mutex
	limit       *Budget
	slots       int
	parallelism int
	reserved    Footprint
	count       int
}

// NewPool builds a pool admitting at most slots jobs whose summed
// estimated footprint stays within limit (nil or zero Budget = no
// resource bound, slots only). parallelism is the worker count draining
// the pool; it scales the Retry-After hint, never admission itself.
func NewPool(limit *Budget, slots, parallelism int) *Pool {
	if slots < 1 {
		slots = 1
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return &Pool{limit: limit, slots: slots, parallelism: parallelism}
}

// Admit reserves capacity for one job or rejects it with a *QueueError.
// The caller must Release the same footprint exactly once when the job
// reaches a terminal state (or on enqueue failure after admission).
func (p *Pool) Admit(f Footprint) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.count >= p.slots {
		return &QueueError{
			Kind:       KindSlots,
			Limit:      int64(p.slots),
			Observed:   int64(p.count + 1),
			RetryAfter: p.retryAfter(),
		}
	}
	if !p.limit.Unlimited() {
		next := p.reserved
		next.add(f)
		if qe := next.exceeds(p.limit); qe != nil {
			qe.RetryAfter = p.retryAfter()
			return qe
		}
	}
	p.reserve(f)
	return nil
}

// Force reserves capacity unconditionally. Boot recovery uses it to
// re-admit jobs the store records as already accepted: a restart
// must never bounce work the previous process promised to run, even if
// the limits have since been tightened.
func (p *Pool) Force(f Footprint) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reserve(f)
}

// Release returns a job's reserved capacity. It must be passed the
// same footprint that was admitted.
func (p *Pool) Release(f Footprint) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.count--
	if p.count < 0 {
		p.count = 0
	}
	p.reserved.HeapBytes = max(p.reserved.HeapBytes-f.HeapBytes, 0)
	p.reserved.Events = max(p.reserved.Events-f.Events, 0)
	p.reserved.Processed = max(p.reserved.Processed-f.Processed, 0)
	p.reserved.TracePoints = max(p.reserved.TracePoints-f.TracePoints, 0)
	p.reserved.Wall = max(p.reserved.Wall-f.Wall, 0)
}

// Depth returns the number of jobs currently holding capacity.
func (p *Pool) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count
}

// reserve applies one admission; the caller holds p.mu.
func (p *Pool) reserve(f Footprint) {
	p.count++
	p.reserved.add(f)
}

// retryAfter estimates when capacity frees: the reserved wall-clock
// spread over the draining workers, clamped to a sane client-visible
// range. The caller holds p.mu.
func (p *Pool) retryAfter() time.Duration {
	d := p.reserved.Wall / time.Duration(p.parallelism)
	if d < time.Second {
		d = time.Second
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}

// add sums another footprint into f.
func (f *Footprint) add(o Footprint) {
	f.HeapBytes += o.HeapBytes
	f.Events += o.Events
	f.Processed += o.Processed
	f.TracePoints += o.TracePoints
	f.Wall += o.Wall
}

// exceeds reports the first budget field the summed footprint breaks,
// or nil. The Wall comparison treats the budget as aggregate reserved
// work, mirroring how the pool uses it; per-run wall limits still
// apply inside each run.
func (f Footprint) exceeds(b *Budget) *QueueError {
	if b.HeapBytes > 0 && f.HeapBytes > b.HeapBytes {
		return &QueueError{Kind: KindHeapBytes, Limit: b.HeapBytes, Observed: f.HeapBytes}
	}
	if b.Events > 0 && f.Events > b.Events {
		return &QueueError{Kind: KindEvents, Limit: b.Events, Observed: f.Events}
	}
	if b.TracePoints > 0 && f.TracePoints > b.TracePoints {
		return &QueueError{Kind: KindTracePoints, Limit: b.TracePoints, Observed: f.TracePoints}
	}
	if b.Wall > 0 && f.Wall > b.Wall {
		return &QueueError{Kind: KindWallClock, Limit: int64(b.Wall), Observed: int64(f.Wall)}
	}
	return nil
}
