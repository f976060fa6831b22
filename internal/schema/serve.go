package schema

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Serving shapes: the JSON bodies cmd/ccserve accepts and returns.
// They live here, beside the version they are stamped with, so clients
// and server agree on one declaration — and so the shapes stay plain
// data with no dependency on simulator types (durations are seconds,
// rates are Mbps, buffers are bytes).

// Job lifecycle states reported by the server. A job enters "queued" at
// admission, moves to "running" when a worker claims it, and ends in
// exactly one terminal state. "done" covers both computed and
// cache-served results (JobStatus.Cached distinguishes them); a
// "failed" job runs again when it is resubmitted.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
	// JobPoisoned means the config has used up its strikes: attempts
	// that ended without a result, whether the simulation failed or the
	// worker process running it died (OOM kill, runtime crash). It is
	// refused, resubmission included, until an operator removes its
	// poison record; a delivered result clears the record.
	JobPoisoned = "poisoned"
)

// JobTerminal reports whether a job state is final.
func JobTerminal(state string) bool {
	switch state {
	case JobDone, JobFailed, JobPoisoned:
		return true
	}
	return false
}

// FlowGroup describes Count identical flows in a scenario.
type FlowGroup struct {
	// CCA is the congestion control algorithm ("reno", "cubic", "bbr",
	// "vegas", "bbr2").
	CCA string `json:"cca"`
	// RTTMs is the flows' base round-trip time in milliseconds.
	RTTMs float64 `json:"rttMs"`
	// Count is how many such flows to run (≥1).
	Count int `json:"count"`
	// Path routes the group's forward traffic through the named
	// topology links, in order. Required (non-empty) when the job
	// declares a topology; must be absent otherwise.
	Path []string `json:"path,omitempty"`
}

// JobSpec is one scenario configuration a client submits. Seed plus the
// scenario fields form the job's identity: the server keys the compiled
// run (not the name), so two differently-named but identical scenarios
// share one cached result.
type JobSpec struct {
	// Name labels the job in status output and logs; it is restricted to
	// [A-Za-z0-9._-].
	Name string `json:"name"`
	// Seed seeds the simulation.
	Seed uint64 `json:"seed"`
	// RateMbps is the bottleneck bandwidth in Mbps (dumbbell jobs;
	// ignored when Topology is set, where each link carries its own
	// rate).
	RateMbps float64 `json:"rateMbps,omitempty"`
	// BufferBytes is the drop-tail queue capacity (dumbbell jobs;
	// ignored when Topology is set).
	BufferBytes int64 `json:"bufferBytes,omitempty"`
	// Topology replaces the implicit dumbbell with an explicit link
	// graph; flow groups then route via their Path fields.
	Topology *TopologyDoc `json:"topology,omitempty"`
	// ECN enables RFC 3168 marking end to end on a dumbbell job
	// (topology jobs flag ECN per link instead).
	ECN bool `json:"ecn,omitempty"`
	// ECNMarkBytes overrides the dumbbell's drop-tail CE-marking
	// threshold (0 = BufferBytes/4; ignored without ECN).
	ECNMarkBytes int64 `json:"ecnMarkBytes,omitempty"`
	// Flows lists the flow groups; at least one, each non-empty.
	Flows []FlowGroup `json:"flows"`
	// WarmupS is the excluded start-up period in virtual seconds.
	WarmupS float64 `json:"warmupS,omitempty"`
	// DurationS is the measurement window in virtual seconds.
	DurationS float64 `json:"durationS"`
	// StaggerS is the random start window in virtual seconds.
	StaggerS float64 `json:"staggerS,omitempty"`
	// AQM overrides the bottleneck discipline ("" = drop-tail).
	AQM string `json:"aqm,omitempty"`
}

// Validate rejects specs the simulator cannot run or the store cannot
// key. It is the server's first line of defense: everything past it may
// be recorded as admitted, so nothing un-runnable should survive it.
func (s *JobSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("schema: job has no name")
	}
	for i := 0; i < len(s.Name); i++ {
		c := s.Name[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.'
		if !ok {
			return fmt.Errorf("schema: job name %q: character %q not in [A-Za-z0-9._-]", s.Name, c)
		}
	}
	if strings.HasPrefix(s.Name, ".") {
		return fmt.Errorf("schema: job name %q must not start with a dot", s.Name)
	}
	if s.Topology != nil {
		if err := s.Topology.Validate(); err != nil {
			return fmt.Errorf("schema: job %s: %w", s.Name, err)
		}
	} else {
		if s.RateMbps <= 0 {
			return fmt.Errorf("schema: job %s: rateMbps %v must be positive", s.Name, s.RateMbps)
		}
		if s.BufferBytes <= 0 {
			return fmt.Errorf("schema: job %s: bufferBytes %d must be positive", s.Name, s.BufferBytes)
		}
		if s.ECNMarkBytes < 0 {
			return fmt.Errorf("schema: job %s: ecnMarkBytes %d must be non-negative", s.Name, s.ECNMarkBytes)
		}
	}
	if s.DurationS <= 0 {
		return fmt.Errorf("schema: job %s: durationS %v must be positive", s.Name, s.DurationS)
	}
	if s.WarmupS < 0 || s.StaggerS < 0 {
		return fmt.Errorf("schema: job %s: warmupS/staggerS must be non-negative", s.Name)
	}
	if len(s.Flows) == 0 {
		return fmt.Errorf("schema: job %s: no flow groups", s.Name)
	}
	for i, g := range s.Flows {
		if g.CCA == "" {
			return fmt.Errorf("schema: job %s: flow group %d has no cca", s.Name, i)
		}
		if g.RTTMs <= 0 {
			return fmt.Errorf("schema: job %s: flow group %d rttMs %v must be positive", s.Name, i, g.RTTMs)
		}
		if g.Count < 1 {
			return fmt.Errorf("schema: job %s: flow group %d count %d must be ≥1", s.Name, i, g.Count)
		}
		if s.Topology == nil {
			if len(g.Path) > 0 {
				return fmt.Errorf("schema: job %s: flow group %d declares a path but the job has no topology", s.Name, i)
			}
			continue
		}
		if len(g.Path) == 0 {
			return fmt.Errorf("schema: job %s: flow group %d needs a path through the topology", s.Name, i)
		}
		for _, name := range g.Path {
			if s.Topology.Link(name) == nil {
				return fmt.Errorf("schema: job %s: flow group %d routes over undeclared link %q", s.Name, i, name)
			}
		}
	}
	return nil
}

// BatchRequest is the body of POST /v1/batches.
type BatchRequest struct {
	// SchemaVersion must carry a major this server reads.
	SchemaVersion string `json:"schema_version"`
	// Jobs are the scenarios to run; admission is all-or-nothing per
	// batch, so one oversized job bounces the whole request rather than
	// leaving a half-admitted batch.
	Jobs []JobSpec `json:"jobs"`
}

// JobStatus is one job's externally visible state.
type JobStatus struct {
	// Name is the client's label from the JobSpec.
	Name string `json:"name"`
	// Key is the run key the result is stored under.
	Key string `json:"key"`
	// State is one of the Job* lifecycle constants.
	State string `json:"state"`
	// Cached reports that the result was served from the store without
	// recomputation.
	Cached bool `json:"cached,omitempty"`
	// Error carries the failure or rejection reason for terminal
	// non-done states.
	Error string `json:"error,omitempty"`
	// Attempts counts executions since the job was last queued.
	Attempts int `json:"attempts,omitempty"`
	// WallMs is the wall-clock time the finished run consumed.
	WallMs float64 `json:"wallMs,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/batches (201) and
// of GET /v1/batches/{id}.
type BatchResponse struct {
	SchemaVersion string `json:"schema_version"`
	// Batch identifies the admitted batch; it is a hash of the member
	// keys, so resubmitting the same scenarios addresses the same batch.
	Batch string `json:"batch"`
	// Jobs reports every member's current status, in submission order.
	Jobs []JobStatus `json:"jobs"`
}

// ErrorResponse is the body of every non-2xx ccserve reply.
type ErrorResponse struct {
	SchemaVersion string `json:"schema_version"`
	Error         string `json:"error"`
	// RetryAfterS mirrors the Retry-After header on 429 responses.
	RetryAfterS float64 `json:"retryAfterS,omitempty"`
}

// Server lifecycle states reported by GET /healthz.
const (
	ServerReady    = "ready"
	ServerDraining = "draining"
)

// HealthResponse is the body of GET /healthz. The HTTP status carries
// the same signal for probes that only look at codes: 200 when ready,
// 503 when draining — unless the probe asks for liveness only
// (?probe=live), which answers 200 whenever the process can respond at
// all. Liveness and readiness are distinct questions: a draining server
// is alive (do not restart it mid-checkpoint) but not ready (send no
// new work).
type HealthResponse struct {
	SchemaVersion string `json:"schema_version"`
	State         string `json:"state"`
	// Live is true whenever the server process answers: the supervisor
	// loop is running even if it refuses new work.
	Live bool `json:"live"`
	// Ready is true when the server accepts new submissions.
	Ready bool `json:"ready"`
	// Queued and Running count jobs not yet terminal.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Workers lists the worker subprocesses with a job in flight (fleet
	// mode); a warm worker idle between jobs is not listed.
	Workers []WorkerHealth `json:"workers,omitempty"`
	// Fleet aggregates worker lifecycle counters (fleet mode).
	Fleet *FleetHealth `json:"fleet,omitempty"`
}

// WorkerHealth is one busy worker subprocess in /healthz output.
type WorkerHealth struct {
	// PID is the worker's OS process id.
	PID int `json:"pid"`
	// Job and Key identify the scenario the worker is executing.
	Job string `json:"job"`
	Key string `json:"key"`
}

// FleetHealth aggregates worker lifecycle counters since boot.
type FleetHealth struct {
	// Spawns counts worker processes started — warm workers, each of
	// which serves many jobs, and one-job processes for jobs priced
	// above the warm bound — not jobs dispatched.
	Spawns int64 `json:"spawns"`
	// Exits counts worker processes reaped, however they ended.
	Exits int64 `json:"exits"`
	// Restarts counts crash-loop respawns: a worker died without
	// delivering an outcome and the job was retried in a new process.
	Restarts int64 `json:"restarts"`
	// Poisoned counts configs refused after using up their strikes.
	Poisoned int64 `json:"poisoned"`
}

// Worker outcome states: a worker subprocess's answer to one job. A
// worker that dies before answering the job it took crashed.
const (
	// WorkerDone: the result is committed to the store.
	WorkerDone = "done"
	// WorkerFailed: the simulation failed with a replayable RunError;
	// the worker parked <key>.failed.json beside the store.
	WorkerFailed = "failed"
	// WorkerCheckpoint: the run was cancelled (SIGTERM, drain) before
	// finishing; nothing was committed and the job can re-run verbatim.
	WorkerCheckpoint = "checkpoint"
)

// WorkerJob is the payload a ccserve supervisor writes to a worker
// subprocess's stdin for each job it dispatches there (a warm worker
// takes many in turn): everything one execution attempt needs — the
// run itself and the store/lease protocol any process would commit it
// through. Times are milliseconds and sizes bytes so the shape stays
// plain data, like every other schema type.
type WorkerJob struct {
	SchemaVersion string `json:"schema_version"`
	// Out is the output directory (store, leases) to commit to.
	Out string `json:"out"`
	// Key is the run key the result is committed under; the worker
	// recomputes it from Config and refuses to run on a mismatch rather
	// than commit under a wrong identity.
	Key string `json:"key"`
	// Config is the run: an encoded core.RunConfig, opaque here so that
	// this package stays free of simulator types.
	Config json.RawMessage `json:"config"`
	// Owner is the lease identity for this attempt, unique per dispatch
	// (not per process) so the supervisor can clean up the lease of the
	// job a crashed worker had in flight.
	Owner string `json:"owner"`
	// MemLimitBytes caps the worker's address space (RLIMIT_AS); 0
	// leaves the OS default. A worker applies its first payload's and
	// keeps it for life.
	MemLimitBytes int64 `json:"memLimitBytes,omitempty"`
	// DeadlineMs is the wall-clock allowance for the run.
	DeadlineMs float64 `json:"deadlineMs"`
	// LeaseTTLMs and HeartbeatMs configure the worker's lease protocol;
	// they must match the supervisor's so staleness means one thing.
	LeaseTTLMs  float64 `json:"leaseTTLMs"`
	HeartbeatMs float64 `json:"heartbeatMs"`
}

// WorkerOutcome is the JSON line a worker writes to stdout when an
// attempt resolves: one line per job, in the order the jobs came.
// Stdout ending before a job's line is the crash signal.
type WorkerOutcome struct {
	SchemaVersion string `json:"schema_version"`
	// State is one of the Worker* constants.
	State string `json:"state"`
	// Cached reports the result was already in the store.
	Cached bool `json:"cached,omitempty"`
	// Error carries the failure reason for WorkerFailed.
	Error string `json:"error,omitempty"`
	// WallMs is the wall-clock time the run consumed.
	WallMs float64 `json:"wallMs,omitempty"`
}
