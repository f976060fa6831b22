package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestTableTextAlignment(t *testing.T) {
	tab := NewTable("Demo", "Flows", "JFI")
	tab.AddRow(1000, 0.4)
	tab.AddRow(50, 0.99)
	var buf bytes.Buffer
	if err := tab.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Demo") {
		t.Fatalf("title missing: %q", lines[0])
	}
	if !strings.Contains(lines[1], "Flows") || !strings.Contains(lines[1], "JFI") {
		t.Fatalf("header: %q", lines[1])
	}
	if !strings.Contains(lines[3], "1000") || !strings.Contains(lines[3], "0.400") {
		t.Fatalf("row: %q", lines[3])
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("x", 1.5)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\nx,1.500\n" {
		t.Fatalf("csv = %q", got)
	}
}

func TestTableCSVRejectsCommas(t *testing.T) {
	tab := NewTable("", "a")
	tab.AddRow("x,y")
	if err := tab.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("comma cell accepted")
	}
}

func TestFormatFloatRanges(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		0.001:   "0.00100",
		0.42:    "0.420",
		3.14159: "3.142",
		99.5:    "99.5",
		12345:   "12345",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.425); got != "42.5%" {
		t.Fatalf("Pct = %q", got)
	}
}

func TestJSONTableRoundTrip(t *testing.T) {
	tab := NewTable("Round trip", "a", "b")
	tab.AddRow("x", 1.5)
	tab.AddRow("y", 2)
	tab.AddNote("converged at %ds", 12)

	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema_version"`) {
		t.Fatalf("JSON table carries no schema version:\n%s", buf.String())
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != tab.Title || !reflect.DeepEqual(got.Headers, tab.Headers) ||
		!reflect.DeepEqual(got.Rows, tab.Rows) || !reflect.DeepEqual(got.Notes, tab.Notes) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", tab, got)
	}
}

func TestJSONTableEmptyRowsSerializeAsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTable("empty", "a").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"rows": []`) {
		t.Fatalf("empty table should serialize rows as [], got:\n%s", buf.String())
	}
}

func TestReadJSONRejectsUnknownMajor(t *testing.T) {
	_, err := ReadJSON(strings.NewReader(`{"schema_version":"99.0","headers":["a"],"rows":[]}`))
	if err == nil || !strings.Contains(err.Error(), "major 99") {
		t.Fatalf("unknown major should be rejected, got %v", err)
	}
	_, err = ReadJSON(strings.NewReader(`{"headers":["a"],"rows":[]}`))
	if err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("missing version should be rejected, got %v", err)
	}
}
