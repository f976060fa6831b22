package main

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

// TestFingerprintGolden regenerates the fingerprint matrix and compares
// it byte for byte with the committed output: a change that moves any
// simulation result fails here. A deliberate change to simulated
// behaviour regenerates the file with
// `go run ./cmd/fprint > cmd/fprint/testdata/fprint.golden`.
func TestFingerprintGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden was generated on amd64; on %s the compiler may fuse multiply-adds, which changes float results", runtime.GOARCH)
	}
	want, err := os.ReadFile("testdata/fprint.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	fingerprint(&got, nil, false)
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("fingerprint differs from testdata/fprint.golden at line %d:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("fingerprint has %d lines, golden has %d", len(gotLines), len(wantLines))
}
