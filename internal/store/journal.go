package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"ccatscale/internal/schema"
)

// errSeqGap marks a well-formed record with the wrong sequence number:
// a record before it was lost, which no crash of the append protocol
// can produce.
var errSeqGap = fmt.Errorf("%w: sequence gap", ErrCorrupt)

// JournalFile is the journal's file name inside its directory.
const JournalFile = "journal.jsonl"

// OpQueued is the op of a journal record that admits a job.
const OpQueued = "queued"

// JournalRecord is one append-only log entry. Op and Job identify what
// happened to which unit of work; Key is the content address of the
// job's result; Owner names the process that wrote the record; Detail
// carries the caller's own serialized state. Seq and CRC are framing:
// Seq must increase by one per record, CRC (CRC-32C over the record
// serialized with CRC zeroed) detects torn or bit-rotted lines.
type JournalRecord struct {
	SchemaVersion string          `json:"schema_version"`
	Seq           uint64          `json:"seq"`
	Op            string          `json:"op"`
	Job           string          `json:"job,omitempty"`
	Key           string          `json:"key,omitempty"`
	Owner         string          `json:"owner,omitempty"`
	Detail        json.RawMessage `json:"detail,omitempty"`
	CRC           string          `json:"crc32c"`
}

// Journal is an append-only log of framed records. Append marshals,
// frames, writes, and fsyncs one line per record: after Append returns,
// the record survives power loss. A torn final line (the crash landed
// mid-write) is detected by CRC at open and ignored; a torn or corrupt
// line anywhere earlier means the file was tampered with or the disk is
// failing, and open refuses it. No front end keeps one — the store is
// the frontier of what is done — and the benchmark times its Append as
// a reference fsync-per-record commit.
type Journal struct {
	f   File
	seq uint64
	err error // sticky: a journal that failed once stays failed
}

// OpenJournal opens (creating if needed) the journal in dir, replays
// every valid record through replay (nil to skip), and positions the
// log for appending. It returns the journal and the number of valid
// records replayed. A torn tail — the hallmark of a crash during
// Append — is truncated away (the record never committed). Corruption
// before the tail quarantines the journal to journal.jsonl.corrupt and
// starts fresh, because a mid-file tear cannot come from the append
// protocol.
func OpenJournal(dir string, replay func(JournalRecord) error) (*Journal, int, error) {
	return OpenJournalFS(OSFS(), dir, replay)
}

// OpenJournalFS is OpenJournal on an explicit FS.
func OpenJournalFS(fs FS, dir string, replay func(JournalRecord) error) (*Journal, int, error) {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	path := filepath.Join(dir, JournalFile)
	data, err := fs.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, err
	}
	valid, recs, perr := scanJournal(data)
	if perr != nil {
		// Corruption before the tail: quarantine the whole file as
		// evidence, then continue from the verified prefix — records
		// fsync'd in order before the damage are still trustworthy, and
		// result payloads live in the content-addressed store anyway, so
		// the cost of a shortened log is re-verifying, not recomputing.
		if err := fs.Rename(path, path+".corrupt"); err != nil && !os.IsNotExist(err) {
			return nil, 0, fmt.Errorf("store: journal corrupt (%v) and quarantine failed: %v", perr, err)
		}
		if err := fs.SyncDir(dir); err != nil {
			return nil, 0, err
		}
	}
	if len(valid) != len(data) {
		// Shortened log (torn tail, or prefix salvaged from quarantine):
		// rewrite the valid prefix atomically rather than appending
		// after garbage.
		if err := WriteFileAtomicFS(fs, path, valid); err != nil {
			return nil, 0, err
		}
	}
	var seq uint64
	if n := len(recs); n > 0 {
		seq = recs[n-1].Seq
	}
	if replay != nil {
		for _, rec := range recs {
			if err := replay(rec); err != nil {
				return nil, len(recs), err
			}
		}
	}
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	return &Journal{f: f, seq: seq}, len(recs), nil
}

// scanJournal walks the log line by line, verifying framing. It returns
// the byte prefix holding valid records, the records themselves, and a
// non-nil error only for corruption *before* the final line (a torn
// tail is normal crash fallout and silently dropped).
func scanJournal(data []byte) (valid []byte, recs []JournalRecord, err error) {
	off := 0
	var seq uint64
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		last := nl < 0
		var line []byte
		if last {
			line = data[off:]
		} else {
			line = data[off : off+nl]
		}
		rec, verr := verifyJournalLine(line, seq+1)
		if verr != nil {
			// A framing failure (unparseable, bad CRC) on the final line
			// is the signature of a torn Append: drop just that line. A
			// sequence gap is never torn-write fallout — the line's CRC
			// verified, so it was written whole after a record vanished —
			// and anywhere before the tail any failure means the log was
			// altered outside the protocol. Both quarantine.
			finalLine := last || off+nl+1 == len(data)
			if finalLine && !errors.Is(verr, errSeqGap) {
				return data[:off], recs, nil
			}
			return data[:off], recs, fmt.Errorf("journal record %d: %w", len(recs)+1, verr)
		}
		seq = rec.Seq
		recs = append(recs, rec)
		if last {
			off = len(data)
		} else {
			off += nl + 1
		}
	}
	return data[:off], recs, nil
}

// verifyJournalLine parses and checks one framed record: JSON shape,
// schema major, CRC-32C, and the expected sequence number.
func verifyJournalLine(line []byte, wantSeq uint64) (JournalRecord, error) {
	var rec JournalRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := schema.Check(rec.SchemaVersion); err != nil {
		return rec, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	crcWant := rec.CRC
	rec.CRC = ""
	reser, err := json.Marshal(rec)
	if err != nil {
		return rec, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if got := fmt.Sprintf("%08x", crc32.Checksum(reser, castagnoli)); got != crcWant {
		return rec, fmt.Errorf("%w: crc32c %s != recorded %q", ErrCorrupt, got, crcWant)
	}
	if rec.Seq != wantSeq {
		return rec, fmt.Errorf("%w: sequence %d, want %d (lost record)", errSeqGap, rec.Seq, wantSeq)
	}
	rec.CRC = crcWant
	return rec, nil
}

// Append durably logs one record: sequence and checksum are filled in,
// the line is written and fsync'd before return. Errors are sticky —
// once an Append fails the journal refuses further writes, because a
// log with a hole cannot be trusted to order recovery.
func (j *Journal) Append(rec JournalRecord) error {
	if j.err != nil {
		return j.err
	}
	rec.Seq = j.seq + 1
	line, err := sealLine(rec)
	if err != nil {
		j.err = err
		return err
	}
	if _, err := j.f.Write(line); err != nil {
		j.err = err
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.err = err
		return err
	}
	j.seq = rec.Seq
	return nil
}

// sealLine frames one record for the log: the current schema version is
// stamped, the CRC-32C computed over the record serialized with CRC
// zeroed, and the framed line returned newline-terminated. The caller
// has already assigned Seq.
func sealLine(rec JournalRecord) ([]byte, error) {
	rec.SchemaVersion = schema.Version
	rec.CRC = ""
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	rec.CRC = fmt.Sprintf("%08x", crc32.Checksum(body, castagnoli))
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// Seq returns the sequence number of the last durable record.
func (j *Journal) Seq() uint64 { return j.seq }

// Close closes the log file, reporting a failed Append's sticky error
// first.
func (j *Journal) Close() error {
	cerr := j.f.Close()
	if j.err != nil {
		return j.err
	}
	return cerr
}
