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
	// The four Mathis views are one entry; no old name survives as an alias.
	for _, gone := range []string{"fig9", "table1", "fig2", "fig3", "burstiness"} {
		stderr.Reset()
		if code := run([]string{gone}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), `unknown experiment "`+gone+`"`) ||
			strings.Contains(stderr.String(), "\n  "+gone+" ") {
			t.Fatalf("%s: exit %d, stderr %q; want the unknown-experiment usage error", gone, code, &stderr)
		}
	}
}

// TestScaleMustBePositive: a non-positive -scale used to be clamped to
// the paper-scale setting under the name CoreScale/1.
func TestScaleMustBePositive(t *testing.T) {
	for _, scale := range []string{"0", "-5"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"run", "-scale", scale, "-flows", "2xreno@20ms", "-warmup", "1s", "-duration", "2s"}, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), "-scale must be at least 1") || stdout.Len() != 0 {
			t.Errorf("-scale %s: exit %d, stdout %q, stderr %q; want exit 2", scale, code, &stdout, &stderr)
		}
	}
}

// TestDurationFlagBeatsTheDeclaredWindow: fig4 declares 1.5× the
// setting's window and -duration still overrides it. The supervisor
// drill makes the window visible without running it: the injected panic
// fails every run half a virtual second in, and the replay command of a
// one-CCA run quotes the config's -duration.
func TestDurationFlagBeatsTheDeclaredWindow(t *testing.T) {
	drill := []string{"fig4", "-edge", "-rate-bps", "20000000", "-buffer-bytes", "49152",
		"-warmup", "1s", "-stagger", "100ms", "-rtt", "20ms", "-parallel", "1", "-panic-at", "500ms"}
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{nil, " -duration 1m30s "}, // EdgeScale's 60 s × 1.5
		{[]string{"-duration", "30s"}, " -duration 30s "},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(drill, tc.flags...), &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("fig4 %v: exit %d, stderr %q; want a replay command with%s", tc.flags, code, &stderr, tc.want)
		}
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
