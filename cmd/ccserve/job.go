package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"ccatscale/internal/budget"
	"ccatscale/internal/core"
	"ccatscale/internal/schema"
)

// job is the server's in-memory state for one admitted scenario. The
// durable record is its spec record in the store; everything here is
// rebuilt from the store at boot. All mutable fields are guarded by the
// server's mutex.
type job struct {
	spec schema.JobSpec
	// cfg is the compiled run and key its core.RunKey: the address
	// cmd/reproduce files the same run under.
	cfg core.RunConfig
	key string
	// fp is the estimator's predicted footprint, reserved in the
	// admission pool until the job reaches a terminal state.
	fp budget.Footprint
	// status is the externally visible state, streamed to subscribers
	// on every transition.
	status schema.JobStatus
	// attempts counts executions since the job was last queued.
	attempts int
	// rec is the spec recording of the submit that last queued the job;
	// nil for a job no submit of this process queued.
	rec *recording
	// subs are live event-stream subscribers; each receives framed
	// JSONL lines and is closed when the job reaches a terminal state.
	subs []chan []byte
}

// buildJob converts a validated JobSpec into the simulator's terms and
// computes its run key and estimated footprint. Compilation runs through
// core.CompileSpec — the same path cmd/reproduce -scenario takes — and
// the name stays out of the key, so two submissions that differ only in
// name are one run. It can fail past schema validation: topology graph
// errors (unreachable nodes, broken paths) only surface when the graph
// compiles.
func buildJob(spec schema.JobSpec) (*job, error) {
	setting, flows, err := core.CompileSpec(spec)
	if err != nil {
		return nil, err
	}
	cfg := setting.Build(flows, core.WithSeed(core.Seed(spec.Seed)))
	key, err := core.RunKey(cfg)
	if err != nil {
		return nil, err
	}
	return &job{
		spec: spec, cfg: cfg, key: key,
		fp:     core.EstimateConfig(cfg),
		status: schema.JobStatus{Name: spec.Name, Key: key, State: schema.JobQueued},
	}, nil
}

// batchID names a batch by its membership: a hash of the sorted member
// keys, so resubmitting the same scenarios addresses the same batch and
// an idempotent client can safely retry a submit whose response it
// lost.
func batchID(keys []string) string {
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	h := sha256.New()
	for _, k := range sorted {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// deadline derives the job's wall-clock allowance from the estimator:
// headroom times the predicted wall, floored so tiny estimates do not
// starve real runs. The worker turns it into a context deadline, which
// core.RunCtx clamps its watchdog under — so a blown deadline surfaces
// as a replayable wall-clock RunError with commit margin to spare.
func (j *job) deadline(factor float64, floor time.Duration) time.Duration {
	d := time.Duration(factor * float64(j.fp.Wall))
	if d < floor {
		d = floor
	}
	return d
}

// specSuffix marks a spec record in the store: <run key>.spec holds the
// admitted spec and its batch, written before the submit is answered. A
// spec record with no result, no failure record and no refusing poison
// record is work a restarted server re-queues.
const specSuffix = ".spec"

// specRecord is the payload of a spec record.
type specRecord struct {
	Spec  schema.JobSpec `json:"spec"`
	Batch string         `json:"batch"`
}
