package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
)

// RunRecordVersion is the shape of the RunResult record a run key
// addresses. It is folded into every RunKey, so a field added to
// RunResult (which an older record would decode as zero) moves every
// key rather than serving records that lack it;
// TestRunResultFieldsGolden fails until the version is bumped with the
// field set.
const RunRecordVersion = 1

// RunKey is the content address of one run's result, in both front
// ends: a hash of the config with its governance cleared, under the
// record version. The budget, the wall limit and the fidelity tier say
// how a run is governed — none changes what the simulation computes, so
// none may move the key; this is the only such list. The key names no
// job and no plan position, so a reordered or edited plan can never be
// served another config's run, and two jobs that differ only in name
// are one run. A config that does not marshal has no address, and is
// an error rather than a key every such config would share.
func RunKey(cfg RunConfig) (string, error) {
	cfg.Budget, cfg.WallLimit, cfg.Fidelity = nil, 0, 0
	data, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("core: run key: %w", err)
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("run%d-%x", RunRecordVersion, sum[:12]), nil
}
