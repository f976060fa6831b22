package main

import (
	"fmt"
	"net/http"
	"os"
	"testing"
	"time"

	"ccatscale/internal/schema"
	"ccatscale/internal/store"
)

// benchBatchSize is how many distinct-seed jobs each benchmark
// iteration pushes through the server. Large enough to keep every
// worker busy, small enough that one iteration stays in the hundreds
// of milliseconds.
const benchBatchSize = 16

// benchSpecs builds one iteration's batch: tiny jobs (a quarter second
// of simulated time, one flow) whose seeds encode the iteration so no
// job ever dedupes against a predecessor — every submission must cost
// a real simulation run.
func benchSpecs(round int) []schema.JobSpec {
	specs := make([]schema.JobSpec, benchBatchSize)
	for i := range specs {
		seed := uint64(round*benchBatchSize + i + 1)
		specs[i] = schema.JobSpec{
			Name: fmt.Sprintf("bench-%d-%d", round, i), Seed: seed,
			RateMbps: 5, BufferBytes: 16384, DurationS: 0.25,
			Flows: []schema.FlowGroup{{CCA: "reno", RTTMs: 20, Count: 1}},
		}
	}
	return specs
}

// benchServe measures end-to-end served-job throughput: submit a
// batch, poll to terminal, repeat. The in-process and fleet variants
// share this body so the reported jobs/sec difference isolates the
// cost of process isolation — one warm worker spawn per runner, payload
// and outcome over pipes, per-dispatch lease traffic — against
// identical simulation work.
func benchServe(b *testing.B, fleet bool) {
	cfg := chaosServerConfig(b.TempDir(), store.OSFS())
	cfg.workers = 4
	cfg.slots = 2 * benchBatchSize // admission headroom: never backpressure the bench
	if fleet {
		cfg.leaseTTL = time.Second
		cfg.leaseHeartbeat = 100 * time.Millisecond
		cfg.fleet = &fleetConfig{
			backoffBase: 10 * time.Millisecond,
			backoffMax:  50 * time.Millisecond,
			argv:        []string{os.Args[0]},
			env:         []string{"CCSERVE_TEST_WORKER=1"},
		}
	}
	s, err := newServer(cfg)
	if err != nil {
		b.Fatalf("boot: %v", err)
	}
	defer s.Drain()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, rr := submit(b, s, benchSpecs(i)...)
		if rr.Code != http.StatusCreated {
			b.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
		}
		got := waitBatch(b, s, resp.Batch, 2*time.Minute)
		for _, j := range got.Jobs {
			if j.State != schema.JobDone {
				b.Fatalf("job %s resolved %s: %s", j.Name, j.State, j.Error)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*benchBatchSize)/b.Elapsed().Seconds(), "jobs/sec")
}

func BenchmarkServeInprocess(b *testing.B) { benchServe(b, false) }

func BenchmarkServeFleet(b *testing.B) { benchServe(b, true) }
