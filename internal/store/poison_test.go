package store

import (
	"os"
	"path/filepath"
	"testing"
)

func TestPoisonsMarkGetClear(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPoisonsFS(OSFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Get("oom-1-deadbeef"); ok {
		t.Fatal("fresh poison set reports a key poisoned")
	}
	rec := PoisonRecord{Key: "oom-1-deadbeef", Job: "oom", Reason: "exit status 2", Strikes: 3}
	if err := p.Mark(rec); err != nil {
		t.Fatal(err)
	}
	got, ok := p.Get("oom-1-deadbeef")
	if !ok || got.Strikes != 3 || got.Reason != "exit status 2" || got.SchemaVersion == "" {
		t.Fatalf("Get = %+v ok=%v", got, ok)
	}
	// Reopen: the record is durable.
	p2, err := OpenPoisonsFS(OSFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := p2.Get(rec.Key); !ok || got.Strikes != rec.Strikes || got.Reason != rec.Reason {
		t.Fatalf("reopened Get = %+v ok=%v, want %+v", got, ok, rec)
	}
	if err := p2.Clear(rec.Key); err != nil {
		t.Fatal(err)
	}
	if _, ok := p2.Get(rec.Key); ok {
		t.Fatal("key still poisoned after Clear")
	}
	if err := p2.Clear(rec.Key); err != nil {
		t.Fatal("Clear of a clear key must be a no-op, got", err)
	}
}

func TestPoisonsRejectHostileKeys(t *testing.T) {
	p, err := OpenPoisonsFS(OSFS(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "a/b", ".hidden"} {
		if err := p.Mark(PoisonRecord{Key: key}); err == nil {
			t.Errorf("Mark accepted hostile key %q", key)
		}
		if _, ok := p.Get(key); ok {
			t.Errorf("Get reports hostile key %q poisoned", key)
		}
	}
}

func TestPoisonsCorruptRecordStaysPoisoned(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPoisonsFS(OSFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, poisonDir, "bad-1-cafe.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := p.Get("bad-1-cafe")
	if !ok || got.Strikes < 1000 {
		t.Fatalf("corrupt poison record read as %+v (ok=%v); refusing is the safe direction", got, ok)
	}
	if got.Key != "bad-1-cafe" {
		t.Fatalf("corrupt record key = %q", got.Key)
	}
}
