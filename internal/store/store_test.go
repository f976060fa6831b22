package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSealParseRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{
		[]byte("hello\n"),
		[]byte(""),
		[]byte("{\"a\":1}\n#ccstore not-a-real-trailer\nmore payload"),
		bytes.Repeat([]byte{0, 1, 2, 0xff}, 1000),
	} {
		got, err := ParseRecord(Seal(payload))
		if err != nil {
			t.Fatalf("ParseRecord(Seal(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip changed payload: %q -> %q", payload, got)
		}
	}
}

func TestParseRecordRejectsDamage(t *testing.T) {
	rec := Seal([]byte("the result\n"))
	cases := map[string][]byte{
		"no trailer":   []byte("just bytes"),
		"torn payload": rec[1:], // first byte lost: length + crc mismatch
		"torn trailer": rec[:len(rec)-5],
		"flipped bit":  append([]byte{rec[0] ^ 0x01}, rec[1:]...),
		"empty":        {},
	}
	for name, data := range cases {
		if _, err := ParseRecord(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestStorePutGetIdempotent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "cafe0123-7"
	if s.Has(key) {
		t.Fatal("empty store has key")
	}
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty store: %v, want ErrNotFound", err)
	}
	if err := s.Put(key, []byte("first")); err != nil {
		t.Fatal(err)
	}
	// Exactly-once: a duplicate commit (a racing worker's attempt) is a
	// no-op; the first committed bytes stay canonical.
	if err := s.Put(key, []byte("second attempt, different bytes")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "first" {
		t.Fatalf("duplicate Put overwrote committed record: %q", got)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys() = %v", keys)
	}
}

func TestStoreQuarantinesCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("deadbeef-1", []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit on disk behind the store's back.
	path := filepath.Join(dir, "deadbeef-1.rec")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Get("deadbeef-1")
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt Get error = %v, want ErrCorrupt and ErrNotFound", err)
	}
	if _, serr := os.Stat(path + ".corrupt"); serr != nil {
		t.Fatalf("corrupt record not quarantined: %v", serr)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("corrupt record still present: %v", serr)
	}
	// The key now reads as absent and can be recomputed.
	if s.Has("deadbeef-1") {
		t.Fatal("quarantined key still reads as present")
	}
	if err := s.Put("deadbeef-1", []byte("recomputed")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("deadbeef-1")
	if err != nil || string(got) != "recomputed" {
		t.Fatalf("recommit after quarantine: %q, %v", got, err)
	}
}

func TestStoreRejectsHostileKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "../escape", "a/b", ".hidden", "sp ace"} {
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", bad)
		}
	}
}

func TestWriteFileAtomicReplacesWholly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target.json")
	if err := WriteFileAtomicFS(OSFS(), path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomicFS(OSFS(), path, []byte("v2 is longer")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2 is longer" {
		t.Fatalf("read back %q, %v", data, err)
	}
	// No temp litter after success.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp.") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
	// Missing parent fails loudly instead of silently dropping data.
	if err := WriteFileAtomicFS(OSFS(), filepath.Join(dir, "no/such/dir/x"), []byte("x")); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
}
