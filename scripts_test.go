package ccatscale

import (
	"bytes"
	"errors"
	"io/fs"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestShellScriptsParse runs `bash -n` on every shell script in the
// repository (scripts/, bench/run.sh, results/regenerate.sh), so a
// helper that no longer parses fails here and not in the next
// measurement that needs it.
func TestShellScriptsParse(t *testing.T) {
	bash, err := exec.LookPath("bash")
	if err != nil {
		t.Skip("bash is not on PATH")
	}
	var scripts []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build
		}
		if !d.IsDir() && strings.HasSuffix(path, ".sh") {
			scripts = append(scripts, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(scripts) < 3 {
		t.Fatalf("found only %v; want scripts/*.sh, bench/run.sh and results/regenerate.sh", scripts)
	}
	for _, s := range scripts {
		if out, err := exec.Command(bash, "-n", s).CombinedOutput(); err != nil {
			t.Errorf("bash -n %s: %v\n%s", s, err, out)
		}
	}
}

// TestBenchpairsUsage holds scripts/benchpairs.sh to its usage contract
// on the paths that need no build: no arguments, or a workload that is
// neither one of BENCHMARK.json's nor a scenario document, exit 2 with
// the usage line and export nothing.
func TestBenchpairsUsage(t *testing.T) {
	bash, err := exec.LookPath("bash")
	if err != nil {
		t.Skip("bash is not on PATH")
	}
	for _, args := range [][]string{
		nil,
		{"HEAD", "no-such-workload"},
		{"HEAD", "examples/scenarios/no-such-document.json"},
		{"HEAD", "core-reno-2000", "ten"},
	} {
		cmd := exec.Command(bash, append([]string{"scripts/benchpairs.sh"}, args...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("benchpairs.sh %q: %v, want exit status 2", args, err)
		}
		if !strings.HasPrefix(stderr.String(), "usage: scripts/benchpairs.sh [-o record.json] <parent-rev> <workload|scenario.json>") {
			t.Errorf("benchpairs.sh %q printed %q, want the usage line", args, stderr.String())
		}
	}
}
