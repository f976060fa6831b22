package store

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"

	"ccatscale/internal/schema"
)

// poisonDir is the subdirectory of an output directory holding one
// record per config with strikes.
const poisonDir = "poison"

// PoisonRecord is one config's strike ledger: the attempts that ended
// without a result, whether the simulation failed or the process running
// it died (OOM kill, runtime crash). A caller refuses the config once it
// holds its threshold of strikes, and clears the record when a result
// is delivered; an operator un-poisons a config by deleting the file.
// It is a standalone file beside the store, so it survives restarts and
// is trivially auditable and removable with ordinary file tools.
type PoisonRecord struct {
	SchemaVersion string `json:"schema_version"`
	// Key is the config's run key.
	Key string `json:"key"`
	// Job is the client-facing name the config was last submitted under.
	Job string `json:"job"`
	// Reason describes the latest strike (failure, exit status, signal).
	Reason string `json:"reason"`
	// Strikes counts the attempts that ended without a result.
	Strikes int `json:"strikes"`
}

// Poisons manages the poison directory for one output directory.
type Poisons struct {
	fs  FS
	dir string
}

// OpenPoisonsFS opens (creating if needed) the poison space under
// outDir.
func OpenPoisonsFS(fs FS, outDir string) (*Poisons, error) {
	dir := filepath.Join(outDir, poisonDir)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Poisons{fs: fs, dir: dir}, nil
}

func (p *Poisons) path(key string) string {
	return filepath.Join(p.dir, key+".json")
}

// Mark persists a poison record. Marking a key that has one overwrites
// it — the latest strike count and reason win.
func (p *Poisons) Mark(rec PoisonRecord) error {
	if err := validKey(rec.Key); err != nil {
		return err
	}
	if rec.SchemaVersion == "" {
		rec.SchemaVersion = schema.Version
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomicFS(p.fs, p.path(rec.Key), append(data, '\n'))
}

// Get returns the poison record for key, or ok=false when the key has
// none. A corrupt record reads as holding every strike — refusing a
// config whose record rotted is the safe direction.
func (p *Poisons) Get(key string) (PoisonRecord, bool) {
	if validKey(key) != nil {
		return PoisonRecord{}, false
	}
	data, err := p.fs.ReadFile(p.path(key))
	if err != nil {
		return PoisonRecord{}, false
	}
	var rec PoisonRecord
	if json.Unmarshal(data, &rec) != nil || rec.Key != key {
		return PoisonRecord{Key: key, Reason: "unreadable poison record", Strikes: math.MaxInt32}, true
	}
	return rec, true
}

// Clear removes a key's poison record: its strikes are forgiven.
func (p *Poisons) Clear(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	err := p.fs.Remove(p.path(key))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}
