package store

import (
	"os"
	"path/filepath"
	"testing"
)

// appendSegment writes records into the named owner's segment.
func appendSegment(t *testing.T, dir, owner string, recs ...JournalRecord) {
	t.Helper()
	j, _, err := OpenJournalSet(OSFS(), dir, owner, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func readSegment(t *testing.T, dir, file string) []JournalRecord {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	valid, recs, perr := scanJournal(data)
	if perr != nil {
		t.Fatalf("segment %s corrupt after compaction: %v", file, perr)
	}
	if len(valid) != len(data) {
		t.Fatalf("segment %s has a torn tail after compaction", file)
	}
	return recs
}

func TestCompactFullyTerminalSegment(t *testing.T) {
	dir := t.TempDir()
	appendRecords(t, dir,
		JournalRecord{Op: OpClaimed, Job: "a", Key: "ka"},
		JournalRecord{Op: OpFailed, Job: "a", Key: "ka"},
		JournalRecord{Op: OpClaimed, Job: "a", Key: "ka"},
		JournalRecord{Op: OpDone, Job: "a", Key: "ka"},
		JournalRecord{Op: OpQueued, Job: "b", Key: "kb"},
		JournalRecord{Op: OpClaimed, Job: "b", Key: "kb"},
		JournalRecord{Op: OpQuarantined, Job: "b", Key: "kb"},
	)
	dropped, err := CompactJournalSet(OSFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	// Dropped: 3 claimed, 1 queued, and the superseded failed.
	if dropped != 5 {
		t.Fatalf("dropped = %d, want 5", dropped)
	}
	recs := readSegment(t, dir, JournalFile)
	want := []struct{ op, job string }{
		{OpDone, "a"}, {OpQuarantined, "b"},
	}
	if len(recs) != len(want) {
		t.Fatalf("kept %d records, want %d: %+v", len(recs), len(want), recs)
	}
	for i, w := range want {
		if recs[i].Op != w.op || recs[i].Job != w.job {
			t.Fatalf("record %d = %s/%s, want %s/%s", i, recs[i].Op, recs[i].Job, w.op, w.job)
		}
		if recs[i].Seq != uint64(i+1) {
			t.Fatalf("record %d seq = %d, want %d (renumbered from 1)", i, recs[i].Seq, i+1)
		}
	}
	// A compacted segment must reopen and replay cleanly, and keep its
	// derived outcome: job a done, job b quarantined.
	outcome := map[string]string{}
	j, n, err := OpenJournal(dir, func(r JournalRecord) error {
		if TerminalOp(r.Op) {
			outcome[r.Job] = r.Op
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n != 2 {
		t.Fatalf("replayed %d records, want 2", n)
	}
	if outcome["a"] != OpDone || outcome["b"] != OpQuarantined {
		t.Fatalf("derived outcomes = %v", outcome)
	}
	// And appending after compaction continues the renumbered sequence.
	if err := j.Append(JournalRecord{Op: OpClaimed, Job: "c", Key: "kc"}); err != nil {
		t.Fatal(err)
	}
	if j.Seq() != 3 {
		t.Fatalf("seq after post-compaction append = %d, want 3", j.Seq())
	}
}

func TestCompactLeavesUnresolvedPendingUntouched(t *testing.T) {
	dir := t.TempDir()
	appendRecords(t, dir,
		JournalRecord{Op: OpClaimed, Job: "a", Key: "ka"},
		JournalRecord{Op: OpDone, Job: "a", Key: "ka"},
		JournalRecord{Op: OpQueued, Job: "b", Key: "kb"}, // still in flight
	)
	before, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := CompactJournalSet(OSFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0 (segment has in-flight work)", dropped)
	}
	after, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("segment with unresolved pending op was rewritten")
	}
}

func TestCompactKeepsResubmittedPendingGeneration(t *testing.T) {
	dir := t.TempDir()
	// Boot one ran the job and failed it (generation 0); boot two
	// accepted a resubmission (generation 1) and died before running it.
	// The gen-0 terminal must not resolve the gen-1 pending record: that
	// OpQueued is admitted (201-acknowledged) work recovery must resume.
	appendSegment(t, dir, "boot1",
		JournalRecord{Op: OpQueued, Job: "a", Key: "ka", Gen: 0},
		JournalRecord{Op: OpFailed, Job: "a", Key: "ka", Gen: 0},
	)
	appendSegment(t, dir, "boot2",
		JournalRecord{Op: OpQueued, Job: "a", Key: "ka", Gen: 1},
	)
	dropped, err := CompactJournalSet(OSFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	// Boot one's pending op is resolved by its own terminal; boot two's
	// segment holds an unresolved generation and stays whole.
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (just boot1's resolved queued op)", dropped)
	}
	recs := readSegment(t, dir, journalSegment("boot2"))
	if len(recs) != 1 || recs[0].Op != OpQueued || recs[0].Gen != 1 {
		t.Fatalf("boot2 segment = %+v, want the gen-1 queued record intact", recs)
	}
	recs = readSegment(t, dir, journalSegment("boot1"))
	if len(recs) != 1 || recs[0].Op != OpFailed {
		t.Fatalf("boot1 segment = %+v, want just the failed terminal", recs)
	}

	// Once a terminal of the pending generation (or later) lands, the
	// whole identity is resolved and every superseded record can go.
	appendSegment(t, dir, "boot3",
		JournalRecord{Op: OpDone, Job: "a", Key: "ka", Gen: 1},
	)
	if _, err := CompactJournalSet(OSFS(), dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, journalSegment("boot2"))); !os.IsNotExist(err) {
		t.Fatalf("resolved gen-1 pending segment not removed: stat err = %v", err)
	}
}

func TestCompactSameSegmentResubmission(t *testing.T) {
	dir := t.TempDir()
	// A failure and its resubmission inside one server life: the gen-1
	// queued op is still in flight, so the segment must stay untouched.
	appendRecords(t, dir,
		JournalRecord{Op: OpQueued, Job: "a", Key: "ka", Gen: 0},
		JournalRecord{Op: OpFailed, Job: "a", Key: "ka", Gen: 0},
		JournalRecord{Op: OpQueued, Job: "a", Key: "ka", Gen: 1},
	)
	dropped, err := CompactJournalSet(OSFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0 (gen-1 resubmission is unresolved)", dropped)
	}
}

func TestCompactCrossSegmentResolution(t *testing.T) {
	dir := t.TempDir()
	// Worker one queued and claimed the job, then died; worker two took
	// it over and finished. Worker one's segment is pure pending — the
	// terminal op that resolves it lives in worker two's segment.
	appendSegment(t, dir, "w1",
		JournalRecord{Op: OpQueued, Job: "a", Key: "ka", Owner: "w1"},
		JournalRecord{Op: OpClaimed, Job: "a", Key: "ka", Owner: "w1"},
	)
	appendSegment(t, dir, "w2",
		JournalRecord{Op: OpDone, Job: "a", Key: "ka", Owner: "w2"},
	)
	dropped, err := CompactJournalSet(OSFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	// Worker one's segment emptied out and was removed entirely.
	if _, err := os.Stat(filepath.Join(dir, journalSegment("w1"))); !os.IsNotExist(err) {
		t.Fatalf("empty segment not removed: stat err = %v", err)
	}
	recs := readSegment(t, dir, journalSegment("w2"))
	if len(recs) != 1 || recs[0].Op != OpDone {
		t.Fatalf("w2 segment = %+v, want the single done record", recs)
	}
	// The whole set still replays for a fresh owner.
	seen := 0
	j, n, err := OpenJournalSet(OSFS(), dir, "w3", func(r JournalRecord) error {
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if n != 1 || seen != 1 {
		t.Fatalf("replayed %d/%d records after compaction, want 1", n, seen)
	}
}

func TestCompactSkipsCorruptAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	appendRecords(t, dir,
		JournalRecord{Op: OpClaimed, Job: "a", Key: "ka"},
		JournalRecord{Op: OpDone, Job: "a", Key: "ka"},
	)
	// A mid-file-damaged segment: compaction must not touch it (that is
	// OpenJournalSet's quarantine job), and must not fail because of it.
	bad := filepath.Join(dir, "journal-dead.jsonl")
	if err := os.WriteFile(bad, []byte("garbage\nmore garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Unrelated files are ignored outright.
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	dropped, err := CompactJournalSet(OSFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (just the resolved intent)", dropped)
	}
	got, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "garbage\nmore garbage\n" {
		t.Fatal("compaction modified a corrupt segment")
	}
}

func TestCompactMissingDir(t *testing.T) {
	dropped, err := CompactJournalSet(OSFS(), filepath.Join(t.TempDir(), "nope"))
	if err != nil || dropped != 0 {
		t.Fatalf("CompactJournalSet on missing dir = (%d, %v), want (0, nil)", dropped, err)
	}
}
