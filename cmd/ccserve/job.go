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
// durable record is the journal; everything here is rebuilt from it at
// boot. All mutable fields are guarded by the server's mutex.
type job struct {
	spec    schema.JobSpec
	setting core.Setting
	flows   []core.FlowSpec
	key     string
	// fp is the estimator's predicted footprint, reserved in the
	// admission pool until the job reaches a terminal state.
	fp budget.Footprint
	// status is the externally visible state, streamed to subscribers
	// on every transition.
	status schema.JobStatus
	// gen is the journal generation of the record currently governing
	// status: 0 for a first submission, +1 each time a failed job is
	// resubmitted. Journal records carry it so replay and compaction
	// can order a retry's fresh OpQueued after the failure it retries,
	// regardless of which segment either landed in.
	gen uint64
	// attempts counts executions; failures counts consecutive failed
	// ones — the circuit breaker's input, replayed from the journal at
	// boot so a crash does not reset a poisoned config's strike count.
	attempts int
	failures int
	// subs are live event-stream subscribers; each receives framed
	// JSONL lines and is closed when the job reaches a terminal state.
	subs []chan []byte
}

// buildJob converts a validated JobSpec into the simulator's terms and
// computes its content address and estimated footprint. Compilation
// runs through core.CompileSpec — the same path cmd/reproduce
// -scenario takes — and the address is core.ResultKey's. It can fail
// past schema validation: topology graph errors (unreachable nodes,
// broken paths) only surface when the graph compiles.
func buildJob(spec schema.JobSpec) (*job, error) {
	setting, flows, err := core.CompileSpec(spec)
	if err != nil {
		return nil, err
	}
	key, err := core.ResultKey(spec.Name, spec.Seed, setting)
	if err != nil {
		return nil, err
	}
	j := &job{spec: spec, setting: setting, flows: flows, key: key}
	j.fp = core.EstimateConfig(j.config())
	j.status = schema.JobStatus{Name: spec.Name, Key: j.key, State: schema.JobQueued}
	return j, nil
}

// config builds the job's RunConfig. Live attachments (Ctx, Telemetry)
// are layered on per attempt.
func (j *job) config() core.RunConfig {
	return j.setting.Build(j.flows, core.WithSeed(core.Seed(j.spec.Seed)))
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

// queuedDetail is the payload of an OpQueued journal record: the full
// client spec, so a crashed server re-admits its queue from the journal
// alone, plus the batch the submission belonged to.
type queuedDetail struct {
	Spec  schema.JobSpec `json:"spec"`
	Batch string         `json:"batch"`
}

// terminalDetail is the payload of terminal journal records: the job's
// final status plus its batch, so boot recovery rebuilds both the
// status map and batch membership from the journal's frontier.
type terminalDetail struct {
	Status schema.JobStatus `json:"status"`
	Batch  string           `json:"batch,omitempty"`
}
