package main

import (
	"encoding/json"
	"path/filepath"

	"ccatscale/internal/budget"
	"ccatscale/internal/schema"
	"ccatscale/internal/store"
)

// manifestFile is the sweep's record in its output directory: the
// parameters and, per job, its outcome and the runs its table is
// rendered from. It is a view, written by every invocation and read by
// none — the store is what a rerun resumes from.
const manifestFile = "manifest.json"

// manifestVersion is bumped when the record's meaning changes; version
// 2 added per-job resource usage, 3 the shared result schema_version and
// per-job JSON tables, 4 the run keys (and dropped the job-set hash).
const manifestVersion = 4

// manifest records a sweep's parameters and per-job outcomes.
type manifest struct {
	Version int `json:"version"`
	// SchemaVersion is the shared result schema (internal/schema) the
	// sweep's JSON tables and telemetry streams were written under.
	SchemaVersion string                `json:"schema_version"`
	Seed          uint64                `json:"seed"`
	Scale         int                   `json:"scale"`
	Quick         bool                  `json:"quick"`
	Jobs          map[string]*jobRecord `json:"jobs"`
}

// jobRecord is one job's outcome.
type jobRecord struct {
	// Status is "done", "failed", or "rejected" (admission control
	// refused a run's footprint; it never ran).
	Status string `json:"status"`
	// File is the output table, relative to the output directory.
	File string `json:"file,omitempty"`
	// JSON is the table's versioned JSON rendering, relative to the
	// output directory.
	JSON string `json:"json,omitempty"`
	// Wall is the job's wall-clock duration in this invocation.
	Wall string `json:"wall,omitempty"`
	// Error holds the failure summary for failed and rejected jobs.
	Error string `json:"error,omitempty"`
	// FailureFile points at the serialized RunError of a failed run
	// (replayable via `reproduce -replay`), relative to the output
	// directory.
	FailureFile string `json:"failureFile,omitempty"`
	// Usage aggregates the resources the job's stored runs consumed.
	Usage *budget.Usage `json:"usage,omitempty"`
	// Runs are the store keys of the job's plan, in plan order.
	Runs []string `json:"runs,omitempty"`
	// Cached counts the runs served from the store rather than computed
	// by this invocation.
	Cached int `json:"cached,omitempty"`
}

func newManifest(seed uint64, scale int, quick bool) *manifest {
	return &manifest{
		Version:       manifestVersion,
		SchemaVersion: schema.Version,
		Seed:          seed,
		Scale:         scale,
		Quick:         quick,
		Jobs:          map[string]*jobRecord{},
	}
}

// save writes the manifest with the store's atomic-commit protocol —
// temp file, fsync, rename, directory fsync — so a sweep killed at any
// syscall boundary leaves the old record or the new one, never a torn
// mix.
func (m *manifest) save(fs store.FS, dir string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return store.WriteFileAtomicFS(fs, filepath.Join(dir, manifestFile), append(data, '\n'))
}
