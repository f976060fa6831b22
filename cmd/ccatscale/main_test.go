package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ccatscale/internal/experiments"
	"ccatscale/internal/sim"
)

// tiny keeps a driver test in the tens of milliseconds.
var tiny = []string{"-edge", "-rate-bps", "20000000", "-buffer-bytes", "49152", "-warmup", "1s", "-duration", "2s", "-stagger", "100ms"}

// TestTimeseriesReportsErrors: timeseries returned before main's error
// check, so a bad flow spec or an unknown CCA printed nothing and exited
// 0 where `run` exits 1.
func TestTimeseriesReportsErrors(t *testing.T) {
	for _, tc := range []struct{ flows, want string }{
		{"bogus", "bad flow spec"},
		{"2xnope@20ms", "unknown CCA"},
	} {
		for _, cmd := range []string{"timeseries", "run"} {
			var stdout, stderr bytes.Buffer
			code := run(append([]string{cmd, "-flows", tc.flows}, tiny...), &stdout, &stderr)
			if code != 1 || !strings.Contains(stderr.String(), tc.want) || stdout.Len() != 0 {
				t.Errorf("%s -flows %s: exit %d, stdout %q, stderr %q; want exit 1 naming %q",
					cmd, tc.flows, code, &stdout, &stderr, tc.want)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"timeseries", "-flows", "2xreno@20ms"}, tiny...), &stdout, &stderr); code != 0 {
		t.Fatalf("timeseries exit %d: %s", code, &stderr)
	}
	if !strings.HasPrefix(stdout.String(), "seconds,reno_bps\n1.000,") {
		t.Fatalf("timeseries CSV:\n%s", &stdout)
	}
}

// TestDispatchIsTheCatalog: every catalog entry is a command that prints
// its declared header row, the usage text lists each of them beside the
// three single-run commands, and anything else is a usage error.
func TestDispatchIsTheCatalog(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"help"}, &stdout, &stderr); code != 0 {
		t.Fatalf("help exit %d", code)
	}
	names := []string{"run", "timeseries", "replay"}
	for _, e := range experiments.Catalog {
		names = append(names, e.Name)
	}
	for _, name := range names {
		if !strings.Contains(stderr.String(), "\n  "+name+" ") {
			t.Errorf("usage does not list %q:\n%s", name, &stderr)
		}
	}
	for _, e := range experiments.Catalog {
		stdout.Reset()
		stderr.Reset()
		if code := run(append([]string{e.Name, "-rtt", "20ms", "-csv"}, tiny...), &stdout, &stderr); code != 0 {
			t.Fatalf("%s exit %d: %s", e.Name, code, &stderr)
		}
		if first, _, _ := strings.Cut(stdout.String(), "\n"); first != strings.Join(e.Headers, ",") {
			t.Errorf("%s -csv starts %q, want the entry's headers %q", e.Name, first, e.Headers)
		}
	}
	stderr.Reset()
	if code := run([]string{"fig9"}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), `unknown experiment "fig9"`) {
		t.Fatalf("unknown experiment: exit %d, stderr %q", code, &stderr)
	}
}

func TestParseFlows(t *testing.T) {
	flows, err := parseFlows("2xbbr@20ms, 3xreno@100ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 5 {
		t.Fatalf("flows = %d, want 5", len(flows))
	}
	if flows[0].CCA != "bbr" || flows[0].RTT != sim.Duration(20*time.Millisecond) {
		t.Fatalf("flow 0 = %+v", flows[0])
	}
	if flows[4].CCA != "reno" || flows[4].RTT != sim.Duration(100*time.Millisecond) {
		t.Fatalf("flow 4 = %+v", flows[4])
	}
}

func TestParseFlowsErrors(t *testing.T) {
	for _, bad := range []string{
		"",             // empty
		"bbr@20ms",     // missing count
		"2xbbr",        // missing RTT
		"0xbbr@20ms",   // zero count
		"-1xreno@20ms", // negative count
		"2xbbr@fast",   // bad duration
		"2@bbrx20ms",   // @ before x
	} {
		if _, err := parseFlows(bad); err == nil {
			t.Errorf("parseFlows(%q) accepted", bad)
		}
	}
}

func TestPickSetting(t *testing.T) {
	if s := pickSetting(true, false, 10); s.Name != "EdgeScale" {
		t.Fatalf("edge pick = %s", s.Name)
	}
	if s := pickSetting(false, true, 10); s.Name != "CoreScale" {
		t.Fatalf("full pick = %s", s.Name)
	}
	if s := pickSetting(false, false, 10); s.Name != "CoreScale/10" {
		t.Fatalf("scaled pick = %s", s.Name)
	}
	// Edge wins over full if both are set (documented precedence).
	if s := pickSetting(true, true, 10); s.Name != "EdgeScale" {
		t.Fatalf("precedence pick = %s", s.Name)
	}
}
