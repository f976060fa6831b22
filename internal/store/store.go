// Package store is the crash-consistent persistence layer under both
// front ends: a content-addressed result store, lease-based claiming
// for multi-process workers, and per-config poison records.
//
// The durability contract, in one paragraph: every result record is
// committed tmp-file → fsync(file) → rename → fsync(dir), so a record
// is either fully present or absent — never torn. Each record carries a
// CRC-32C trailer plus the internal/schema version, so bit rot or a
// half-written file is detected on read and quarantined to
// <name>.corrupt instead of aborting the sweep. The store itself is
// the frontier of what is done: a key that holds a record is served,
// never recomputed, and ccserve's admitted jobs are spec records in the
// same store, so no log is needed to say what is pending. Leases (owner
// id + heartbeat mtime, stale takeover after a TTL) let N worker
// processes share one sweep; a duplicate attempt's commit is a no-op
// because records are addressed by content key, which is what makes
// execution exactly-once. Poison records count a config's strikes —
// attempts that ended without a result. The journal (an append-only,
// fsync-per-record log) backs no front end; the benchmark times it.
//
// The whole protocol runs on the FS seam so internal/store/chaostest
// can kill the process at any syscall boundary, tear writes, and race
// duplicate workers, proving the recovery path against the failures a
// real kernel delivers.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"ccatscale/internal/schema"
)

// castagnoli is the CRC-32C polynomial table (the iSCSI/ext4 checksum,
// chosen over IEEE for its error-detection properties and hardware
// support).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// trailerMagic opens the trailer line appended to every record. The
// leading newline separates it from payloads that do not end in one;
// ParseRecord searches from the end, so payload bytes containing the
// magic are harmless.
const trailerMagic = "\n#ccstore "

// ErrCorrupt tags records whose trailer or checksum does not verify.
// Readers quarantine such files and treat the key as absent.
var ErrCorrupt = errors.New("store: record corrupt")

// ErrNotFound reports an absent key.
var ErrNotFound = errors.New("store: record not found")

// Store is a content-addressed result store rooted at one directory.
// Records are arbitrary payload bytes addressed by a caller-chosen key
// (for sweeps: the governance-invariant config hash + seed), committed
// atomically and verified by CRC-32C on every read. Put is idempotent:
// committing a key that already holds a valid record is a no-op, which
// is the property that makes duplicate worker attempts harmless.
type Store struct {
	dir string
	fs  FS
}

// Open creates or opens a store rooted at dir on the real filesystem.
func Open(dir string) (*Store, error) { return OpenFS(dir, OSFS()) }

// OpenFS is Open on an explicit FS — the seam the chaos harness uses.
func OpenFS(dir string, fs FS) (*Store, error) {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, fs: fs}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a key to its record file. Keys are hex hashes (plus an
// optional "-seed" suffix); anything path-hostile is rejected by Put.
func (s *Store) path(key string) string { return filepath.Join(s.dir, key+".rec") }

// validKey rejects keys that could escape the store directory or
// collide with the quarantine/tmp suffixes.
func validKey(key string) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("store: key %q contains %q; keys are hash-and-seed identifiers", key, r)
		}
	}
	if strings.HasPrefix(key, ".") {
		return fmt.Errorf("store: key %q may not start with a dot", key)
	}
	return nil
}

// Seal frames payload as a durable record: the payload bytes followed
// by a trailer line carrying the schema version, payload length, and
// CRC-32C of the payload. ParseRecord is its inverse.
func Seal(payload []byte) []byte {
	crc := crc32.Checksum(payload, castagnoli)
	trailer := fmt.Sprintf("%sv=%s len=%d crc32c=%08x\n", trailerMagic, schema.Version, len(payload), crc)
	out := make([]byte, 0, len(payload)+len(trailer))
	out = append(out, payload...)
	return append(out, trailer...)
}

// ParseRecord verifies a sealed record and returns its payload. Any
// framing failure — missing trailer, short payload, checksum mismatch,
// unreadable schema major — is reported as ErrCorrupt with detail.
func ParseRecord(rec []byte) ([]byte, error) {
	i := bytes.LastIndex(rec, []byte(trailerMagic))
	if i < 0 {
		return nil, fmt.Errorf("%w: no trailer", ErrCorrupt)
	}
	trailer := strings.TrimSuffix(string(rec[i+1:]), "\n")
	payload := rec[:i]
	var version string
	var length int64 = -1
	var crcWant uint64
	crcSeen := false
	for _, field := range strings.Fields(trailer)[1:] {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			continue
		}
		switch k {
		case "v":
			version = v
		case "len":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: bad trailer length %q", ErrCorrupt, v)
			}
			length = n
		case "crc32c":
			n, err := strconv.ParseUint(v, 16, 32)
			if err != nil {
				return nil, fmt.Errorf("%w: bad trailer checksum %q", ErrCorrupt, v)
			}
			crcWant, crcSeen = n, true
		}
	}
	if length < 0 || !crcSeen {
		return nil, fmt.Errorf("%w: trailer missing len/crc32c", ErrCorrupt)
	}
	if err := schema.Check(version); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if int64(len(payload)) != length {
		return nil, fmt.Errorf("%w: payload is %d bytes, trailer says %d (torn write)", ErrCorrupt, len(payload), length)
	}
	if got := crc32.Checksum(payload, castagnoli); uint64(got) != crcWant {
		return nil, fmt.Errorf("%w: crc32c %08x != recorded %08x", ErrCorrupt, got, crcWant)
	}
	return payload, nil
}

// Put commits payload under key. The record is sealed (CRC-32C trailer
// + schema version) and written tmp → fsync(file) → rename →
// fsync(dir), so a crash at any boundary leaves either the old state or
// the complete new record. If key already holds a valid record the call
// is a no-op and the existing bytes win — first committed result is
// canonical, duplicate attempts (retries, racing workers) cannot change
// it. A corrupt existing record is quarantined and overwritten.
func (s *Store) Put(key string, payload []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	if _, err := s.Get(key); err == nil {
		return nil // exactly-once: the committed record is canonical
	}
	return WriteFileAtomicFS(s.fs, s.path(key), Seal(payload))
}

// Get returns the payload committed under key. A record that fails
// verification is renamed to <name>.corrupt (preserving the evidence)
// and reported as an error wrapping both ErrCorrupt and ErrNotFound, so
// callers that only care about presence can treat it as a miss and
// recompute.
func (s *Store) Get(key string) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	path := s.path(key)
	rec, err := s.fs.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return nil, err
	}
	payload, perr := ParseRecord(rec)
	if perr != nil {
		if qerr := s.quarantine(path); qerr != nil {
			return nil, fmt.Errorf("store: %s: %v (and quarantine failed: %v)", key, perr, qerr)
		}
		return nil, fmt.Errorf("store: %s quarantined to %s.corrupt: %w",
			key, filepath.Base(path), errors.Join(perr, ErrNotFound))
	}
	return payload, nil
}

// Has reports whether key holds a valid record. Corrupt records read as
// absent (and are quarantined as a side effect, same as Get).
func (s *Store) Has(key string) bool {
	_, err := s.Get(key)
	return err == nil
}

// Keys lists every committed key, unverified (corruption surfaces on
// Get). Quarantined and temporary files are excluded.
func (s *Store) Keys() ([]string, error) {
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".rec") {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, ".rec"))
	}
	return keys, nil
}

// quarantine moves a failed record aside as <name>.corrupt, keeping the
// bytes for post-mortem instead of deleting evidence, and fsyncs the
// directory so the quarantine itself survives a crash.
func (s *Store) quarantine(path string) error {
	if err := s.fs.Rename(path, path+".corrupt"); err != nil {
		return err
	}
	return s.fs.SyncDir(filepath.Dir(path))
}

// WriteFileAtomic writes data to path with full crash consistency on
// the real filesystem: unique temp file in the same directory, write,
// fsync(file), rename over path, fsync(dir). After it returns, the file
// is durable; if the process dies at any earlier point, path holds its
// previous content (or remains absent) — never a prefix.
func WriteFileAtomic(path string, data []byte) error {
	return WriteFileAtomicFS(OSFS(), path, data)
}

// tmpSeq tells apart the temp files of one process's concurrent writers.
var tmpSeq atomic.Uint64

// WriteFileAtomicFS is WriteFileAtomic on an explicit FS.
func WriteFileAtomicFS(fs FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	// Unique temp name: O_EXCL retries are not needed because
	// concurrent writers embed their pid and, within one process, a
	// sequence number; a crashed writer's leftover tmp is never renamed.
	tmp := fmt.Sprintf("%s.tmp.%d.%d", path, os.Getpid(), tmpSeq.Add(1))
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	cerr := f.Close()
	if werr != nil || cerr != nil {
		fs.Remove(tmp)
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(dir)
}
