package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"ccatscale/internal/budget"
	"ccatscale/internal/core"
	"ccatscale/internal/experiments"
	"ccatscale/internal/schema"
	"ccatscale/internal/store"
)

// manifestFile is the checkpoint the sweep keeps in its output
// directory: which jobs completed, which failed and why. -resume reads
// it to skip finished tables and re-execute only the rest.
const manifestFile = "manifest.json"

// manifestVersion is bumped when the record's meaning changes; version
// 2 added ConfigHash and per-job resource usage, version 3 the shared
// result schema_version and per-job JSON tables.
const manifestVersion = 3

// manifest records a sweep's parameters and per-job outcomes. The
// parameters are part of the record because resuming under a different
// seed or scale would silently mix incompatible tables.
type manifest struct {
	Version int `json:"version"`
	// SchemaVersion is the shared result schema (internal/schema) the
	// sweep's JSON tables and telemetry streams were written under.
	SchemaVersion string `json:"schema_version"`
	Seed          uint64 `json:"seed"`
	Scale         int    `json:"scale"`
	Quick         bool   `json:"quick"`
	// ConfigHash fingerprints the experiment-defining job list (names,
	// settings with governance knobs zeroed, entry args, table headers). -resume
	// refuses a manifest whose hash no longer matches the jobs this
	// binary would run — the job set changed under it — unless -force
	// overrides.
	ConfigHash string                `json:"configHash,omitempty"`
	Jobs       map[string]*jobRecord `json:"jobs"`
}

// jobRecord is one job's outcome.
type jobRecord struct {
	// Status is "done", "failed", or "rejected" (admission control
	// refused the job's footprint; nothing ran, -resume retries it one
	// fidelity tier lower).
	Status string `json:"status"`
	// File is the output table, relative to the output directory.
	File string `json:"file,omitempty"`
	// JSON is the table's versioned JSON rendering, relative to the
	// output directory.
	JSON string `json:"json,omitempty"`
	// Wall is the job's wall-clock duration.
	Wall string `json:"wall,omitempty"`
	// Error holds the failure summary for failed and rejected jobs.
	Error string `json:"error,omitempty"`
	// FailureFile points at the serialized RunError (replayable via
	// `ccatscale replay -in`), relative to the output directory.
	FailureFile string `json:"failureFile,omitempty"`
	// Usage aggregates the resources the job's runs actually consumed.
	Usage *budget.Usage `json:"usage,omitempty"`
	// Degraded marks a job whose output is reduced-fidelity (a
	// degradation tier ran, or a series was decimated).
	Degraded bool `json:"degraded,omitempty"`
	// Fidelity is the degradation tier the job ran (or was rejected) at.
	Fidelity int `json:"fidelity,omitempty"`
	// Cached marks a job served from the content-addressed store without
	// recomputation — the counter the exactly-once CI smoke asserts on.
	Cached bool `json:"cached,omitempty"`
}

func newManifest(seed uint64, scale int, quick bool, configHash string) *manifest {
	return &manifest{
		Version:       manifestVersion,
		SchemaVersion: schema.Version,
		Seed:          seed,
		Scale:         scale,
		Quick:         quick,
		ConfigHash:    configHash,
		Jobs:          map[string]*jobRecord{},
	}
}

// loadManifest reads the checkpoint from dir. A missing file returns
// (nil, nil): nothing to resume. A corrupt file is quarantined to
// manifest.json.corrupt and also returns (nil, nil) — the manifest is a
// derived view now; the caller rebuilds it from the write-ahead journal,
// which is the durable record.
func loadManifest(dir string) (*manifest, error) {
	return loadManifestFS(store.OSFS(), dir)
}

// loadManifestFS is loadManifest on an explicit FS (the chaos harness
// substitutes one).
func loadManifestFS(fs store.FS, dir string) (*manifest, error) {
	path := filepath.Join(dir, manifestFile)
	data, err := fs.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		if rerr := fs.Rename(path, path+".corrupt"); rerr != nil && !os.IsNotExist(rerr) {
			return nil, fmt.Errorf("corrupt %s (%v) and quarantine failed: %v", manifestFile, err, rerr)
		}
		if serr := fs.SyncDir(dir); serr != nil {
			return nil, serr
		}
		return nil, nil
	}
	if m.Jobs == nil {
		m.Jobs = map[string]*jobRecord{}
	}
	return &m, nil
}

// compatible reports whether a resume under the given parameters can
// reuse this manifest's completed jobs.
func (m *manifest) compatible(seed uint64, scale int, quick bool, configHash string) error {
	if m.Seed != seed || m.Scale != scale || m.Quick != quick {
		return fmt.Errorf("manifest was written by -seed %d -scale %d -quick=%v; "+
			"resuming with -seed %d -scale %d -quick=%v would mix incompatible tables "+
			"(use a fresh -out directory or matching flags)",
			m.Seed, m.Scale, m.Quick, seed, scale, quick)
	}
	if m.ConfigHash != configHash {
		return fmt.Errorf("manifest is stale: its job set (hash %.12s) does not match "+
			"this binary's (hash %.12s) — the experiment definitions changed; "+
			"rerun into a fresh -out directory or pass -force to resume anyway",
			m.ConfigHash, configHash)
	}
	return nil
}

// done reports whether the named job completed and its output file is
// still present in dir.
func (m *manifest) done(dir, name string) bool {
	rec, ok := m.Jobs[name]
	if !ok || rec.Status != "done" || rec.File == "" {
		return false
	}
	_, err := os.Stat(filepath.Join(dir, rec.File))
	return err == nil
}

// save checkpoints the manifest with the store's full atomic-commit
// protocol — temp file, fsync, rename, directory fsync — so a sweep
// killed at any syscall boundary leaves either the old checkpoint or
// the new one, both durable, never a torn mix.
func (m *manifest) save(dir string) error {
	return m.saveFS(store.OSFS(), dir)
}

// saveFS is save on an explicit FS.
func (m *manifest) saveFS(fs store.FS, dir string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return store.WriteFileAtomicFS(fs, filepath.Join(dir, manifestFile), append(data, '\n'))
}

// configHash fingerprints the experiment the job list defines: names,
// each job's setting reduced to its core.Identity (budget, retries,
// wall limit, fidelity cleared), and the catalog entry, its args (the
// RTT set among them) and the header row of its table. So changing
// -mem-budget or -retries between a run and its resume does not read as
// a different experiment, while changing seeds, scales, windows, the job
// set itself or a table's rows or columns does — the store is
// first-commit-wins under keys that do not see the table, and would
// otherwise serve the old shape beside the new.
func configHash(seed uint64, scale int, quick bool, jobs []job) string {
	type hashJob struct {
		Name    string
		Setting core.Setting
		Entry   string
		Args    experiments.Args
		Headers []string
	}
	hj := make([]hashJob, len(jobs))
	for i, j := range jobs {
		hj[i] = hashJob{j.name, core.Identity(j.setting), j.entry.Name, j.args, j.entry.Headers}
	}
	data, err := json.Marshal(struct {
		Seed  uint64
		Scale int
		Quick bool
		Jobs  []hashJob
	}{seed, scale, quick, hj})
	if err != nil {
		// Settings are plain data; marshal cannot fail. Guard anyway.
		return fmt.Sprintf("unhashable: %v", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// beginDetail is the payload of a journal "begin" record: the sweep
// parameters, durable before any job runs, so resume compatibility can
// be checked even when the manifest (a derived view) is lost or
// quarantined.
type beginDetail struct {
	Seed       uint64 `json:"seed"`
	Scale      int    `json:"scale"`
	Quick      bool   `json:"quick"`
	ConfigHash string `json:"configHash"`
}
