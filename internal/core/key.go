package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
)

// Identity returns s with every governance knob cleared: what is left
// defines the experiment. Budgets, retries, the fidelity tier and the
// wall limit say how a run is governed — none changes what the
// simulation computes, so none may reach a result key or a config hash.
// This is the only such list; TestSettingFieldsClassified fails on a
// Setting field it does not account for.
func Identity(s Setting) Setting {
	s.Budget = nil
	s.Retries = 0
	s.Fidelity = 0
	s.WallLimit = 0
	return s
}

// ResultKey is the content address of a job's result in a store: name
// and seed in the clear (for humans listing the directory) plus a hash
// of the setting's Identity. The same experiment therefore always
// commits to the same key — the idempotence that makes duplicate
// execution after a lease takeover or a hedge harmless — while any
// change to what the job measures moves it to a fresh one. A setting
// that does not marshal has no address, and is an error rather than a
// key every such setting would share.
//
// Keys are per front end: cmd/reproduce and ccserve name their jobs
// differently (and title the one per-run table after the name), so the
// same document does not address the same record in both.
func ResultKey(name string, seed uint64, s Setting) (string, error) {
	setting, err := json.Marshal(Identity(s))
	var data []byte
	if err == nil {
		// Stores were first filed while Setting had an AuditDrillAt field,
		// zero in every keyed job; its zero stays in the hashed bytes, so
		// removing the field moved no key.
		setting = bytes.Replace(setting, []byte(`,"Budget":null,`), []byte(`,"AuditDrillAt":0,"Budget":null,`), 1)
		data, err = json.Marshal(struct {
			Name    string
			Seed    uint64
			Setting json.RawMessage
		}{name, seed, setting})
	}
	if err != nil {
		return "", fmt.Errorf("core: result key for %s: %w", name, err)
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%s-%d-%x", name, seed, sum[:8]), nil
}

// RunRecordVersion is the shape of the RunResult record a run key
// addresses. It is folded into every RunKey, so a field added to
// RunResult (which an older record would decode as zero) moves every
// key rather than serving records that lack it;
// TestRunResultFieldsGolden fails until the version is bumped with the
// field set.
const RunRecordVersion = 1

// RunKey is the content address of one run's result: a hash of the
// config with its governance cleared as Identity clears a Setting's
// (budget, wall limit, fidelity tier), under the record version. It
// names no job and no plan position, so a reordered or edited plan can
// never be served another config's run.
func RunKey(cfg RunConfig) (string, error) {
	cfg.Budget, cfg.WallLimit, cfg.Fidelity = nil, 0, 0
	data, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("core: run key: %w", err)
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("run%d-%x", RunRecordVersion, sum[:12]), nil
}
