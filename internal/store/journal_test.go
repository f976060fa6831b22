package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func appendRecords(t *testing.T, dir string, recs ...JournalRecord) {
	t.Helper()
	j, _, err := OpenJournal(dir, nil)
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

func TestJournalAppendReplay(t *testing.T) {
	dir := t.TempDir()
	detail, _ := json.Marshal(map[string]string{"status": "done", "file": "a.txt"})
	appendRecords(t, dir,
		JournalRecord{Op: OpQueued, Job: "fig4_edge", Key: "abc-7", Owner: "w1"},
		JournalRecord{Op: OpQueued, Job: "fig4_core", Key: "abd-7", Owner: "w1", Detail: detail},
		JournalRecord{Op: OpQueued, Job: "fig5_core", Key: "def-7", Owner: "w1"},
	)

	var got []JournalRecord
	j, n, err := OpenJournal(dir, func(r JournalRecord) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n != 3 || len(got) != 3 {
		t.Fatalf("replayed %d/%d records, want 3", n, len(got))
	}
	if got[0].Op != OpQueued || got[0].Job != "fig4_edge" || got[0].Seq != 1 {
		t.Fatalf("record 0: %+v", got[0])
	}
	if got[1].Job != "fig4_core" || string(got[1].Detail) != string(detail) {
		t.Fatalf("record 1 detail did not round-trip: %+v", got[1])
	}
	if got[2].Seq != 3 || j.Seq() != 3 {
		t.Fatalf("sequence: rec %d, journal %d, want 3", got[2].Seq, j.Seq())
	}
	// Appending after replay continues the sequence.
	if err := j.Append(JournalRecord{Op: OpQueued, Job: "fig6_core"}); err != nil {
		t.Fatal(err)
	}
	if j.Seq() != 4 {
		t.Fatalf("post-replay append seq = %d, want 4", j.Seq())
	}
}

// TestJournalTornTail: a crash mid-Append leaves a partial final line.
// Recovery must drop exactly that line — the record never committed —
// and keep everything before it.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	appendRecords(t, dir,
		JournalRecord{Op: OpQueued, Job: "a"},
		JournalRecord{Op: OpQueued, Job: "b"},
		JournalRecord{Op: OpQueued, Job: "c"},
	)
	path := filepath.Join(dir, JournalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record in half (drop its newline and tail bytes).
	torn := data[:len(data)-12]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	var jobs []string
	j, n, err := OpenJournal(dir, func(r JournalRecord) error {
		jobs = append(jobs, r.Job)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || strings.Join(jobs, ",") != "a,b" {
		t.Fatalf("replay after torn tail: n=%d jobs=%v", n, jobs)
	}
	// The torn line is gone from disk and the next append lands cleanly.
	if err := j.Append(JournalRecord{Op: OpQueued, Job: "c"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, n, err = OpenJournal(dir, nil)
	if err != nil || n != 3 {
		t.Fatalf("reopen after repair: n=%d err=%v, want 3 records", n, err)
	}
}

// TestJournalMidFileCorruption: damage before the tail cannot come from
// the append protocol (every record is fsync'd before the next); the
// journal is quarantined and restarted rather than trusted.
func TestJournalMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	appendRecords(t, dir,
		JournalRecord{Op: OpQueued, Job: "a"},
		JournalRecord{Op: OpQueued, Job: "b"},
		JournalRecord{Op: OpQueued, Job: "c"},
	)
	path := filepath.Join(dir, JournalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0x01 // flip a bit in the first record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, n, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n != 0 {
		t.Fatalf("replayed %d records from a corrupt journal, want 0", n)
	}
	if j.Seq() != 0 {
		t.Fatalf("fresh journal seq = %d", j.Seq())
	}
	if _, serr := os.Stat(path + ".corrupt"); serr != nil {
		t.Fatalf("corrupt journal not quarantined: %v", serr)
	}
}

// TestJournalRejectsDroppedRecord: a missing line (sequence gap) is
// corruption, not a torn tail — recovery must not silently skip it.
func TestJournalRejectsDroppedRecord(t *testing.T) {
	dir := t.TempDir()
	appendRecords(t, dir,
		JournalRecord{Op: OpQueued, Job: "a"},
		JournalRecord{Op: OpQueued, Job: "b"},
		JournalRecord{Op: OpQueued, Job: "c"},
	)
	path := filepath.Join(dir, JournalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(path, []byte(lines[0]+lines[2]), 0o644); err != nil {
		t.Fatal(err)
	}
	_, n, err := OpenJournal(dir, nil)
	if err != nil || n != 1 {
		// Record 1 survives; the gap quarantines the rest.
		t.Fatalf("after dropped record: n=%d err=%v", n, err)
	}
	if _, serr := os.Stat(path + ".corrupt"); serr != nil {
		t.Fatalf("journal with sequence gap not quarantined: %v", serr)
	}
}
