package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// CompactJournalSet bounds write-ahead-log growth for a long-lived
// owner of dir (a server that boots, serves, and reboots in the same
// output directory for months): it rewrites every journal segment whose
// pending work is fully resolved, keeping only the records recovery
// still needs, and removes segments left empty. Boot-time replay then
// scales with the number of distinct jobs, not with the number of
// requests ever served.
//
// The retention rule per segment, applied only when every pending op
// (queued/claimed) in the segment has a terminal op for the same
// (job, key) of the same or a later generation somewhere in the whole
// set — generation, not position, is what orders records across
// segments, so a resubmitted job's fresh OpQueued (gen n+1) is never
// "resolved" by the old failure (gen n) it is retrying:
//
//   - pending ops are dropped — their jobs are resolved;
//   - of several terminal records for one (job, key), only the last in
//     the segment is kept — it is the record consumers derive state
//     from (terminal-op derivation is commutative, so dropping
//     superseded outcomes cannot change the derived frontier);
//   - records with ops this build does not know are kept verbatim.
//
// A segment with an unresolved pending op is left untouched: an
// in-flight claim is exactly the record a crash recovery must replay.
//
// Rewrites are atomic (tmp → fsync → rename → dirsync) and sequence
// numbers are renumbered from 1, so a compacted segment is
// indistinguishable from one that was written small. Since per-process
// owners get fresh segment names each boot, compaction doubles as
// rotation: a previous boot's fully-terminal segment shrinks to its
// outcome summary or disappears entirely.
//
// The caller must own dir exclusively (no other process appending to
// any segment) — ccserve guarantees this with its server-singleton
// lease. Returns the number of records dropped across all segments.
func CompactJournalSet(fs FS, dir string) (dropped int, err error) {
	ents, err := fs.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	type segment struct {
		name string
		recs []JournalRecord
	}
	var segs []segment
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if name != JournalFile && !(strings.HasPrefix(name, "journal-") && strings.HasSuffix(name, ".jsonl")) {
			continue
		}
		data, rerr := fs.ReadFile(filepath.Join(dir, name))
		if rerr != nil {
			if os.IsNotExist(rerr) {
				continue
			}
			return dropped, rerr
		}
		_, recs, perr := scanJournal(data)
		if perr != nil {
			// Mid-file damage is OpenJournalSet's problem (quarantine);
			// compaction must not destroy the evidence. Skip the segment.
			continue
		}
		segs = append(segs, segment{name: name, recs: recs})
	}

	// resolved maps each (job, key) identity that has a terminal op
	// anywhere in the set to the highest generation so resolved. A
	// pending op is settled only by a terminal of its own generation or
	// later: "a terminal exists somewhere" is not enough, because a
	// resubmitted failure writes its new OpQueued after — possibly in a
	// different segment than — the terminal it is retrying.
	resolved := map[string]uint64{}
	ident := func(r JournalRecord) string { return r.Job + "\x00" + r.Key }
	for _, seg := range segs {
		for _, r := range seg.recs {
			if TerminalOp(r.Op) {
				if g, ok := resolved[ident(r)]; !ok || r.Gen > g {
					resolved[ident(r)] = r.Gen
				}
			}
		}
	}

	for _, seg := range segs {
		compactable := len(seg.recs) > 0
		for _, r := range seg.recs {
			if PendingOp(r.Op) {
				if g, ok := resolved[ident(r)]; !ok || g < r.Gen {
					compactable = false
					break
				}
			}
		}
		if !compactable {
			continue
		}
		// Decide per record, scanning backwards so "last wins" is one
		// pass: the last terminal per identity stays.
		keep := make([]bool, len(seg.recs))
		terminalKept := map[string]bool{}
		kept := 0
		for i := len(seg.recs) - 1; i >= 0; i-- {
			r := seg.recs[i]
			switch {
			case TerminalOp(r.Op):
				keep[i] = !terminalKept[ident(r)]
				terminalKept[ident(r)] = true
			case PendingOp(r.Op):
				keep[i] = false
			default:
				keep[i] = true // unknown op: future shape, keep verbatim
			}
			if keep[i] {
				kept++
			}
		}
		if kept == len(seg.recs) {
			continue // nothing to drop
		}
		dropped += len(seg.recs) - kept
		path := filepath.Join(dir, seg.name)
		if kept == 0 {
			if err := fs.Remove(path); err != nil && !os.IsNotExist(err) {
				return dropped, err
			}
			if err := fs.SyncDir(dir); err != nil {
				return dropped, err
			}
			continue
		}
		var out []byte
		seq := uint64(0)
		for i, r := range seg.recs {
			if !keep[i] {
				continue
			}
			seq++
			r.Seq = seq
			line, err := sealLine(r)
			if err != nil {
				return dropped, fmt.Errorf("store: compacting %s: %w", seg.name, err)
			}
			out = append(out, line...)
		}
		if err := WriteFileAtomicFS(fs, path, out); err != nil {
			return dropped, err
		}
	}
	return dropped, nil
}
