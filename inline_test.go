package ccatscale

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// packingHelpers are the methods that move a waiting packet in and out
// of its record, once per packet each: a data segment through a queue
// ring and an ACK through a reverse lane (internal/netem/segment.go).
// Two builds in which one of them no longer fit the compiler's inlining
// budget read 1–4 % slower on the benchmark.
var packingHelpers = []string{
	"(*segment).pack",
	"(*segment).unpack",
	"(*ackRecord).pack",
	"(*ackRecord).unpack",
}

// TestPackingHelpersInline builds internal/netem with the compiler's
// inlining report and fails unless every packing helper is reported
// inlinable, so a field or a flag added to one that pushes it past the
// budget fails here rather than as a slower benchmark.
func TestPackingHelpersInline(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	const pkg = "ccatscale/internal/netem"
	args := []string{"build", "-gcflags=" + pkg + "=-m", "./internal/netem"}
	cmd := exec.Command(goBin, args...)
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	if !strings.Contains(string(out), ": can inline ") {
		t.Fatalf("no inlining report in the build output:\n%s", out)
	}
	for _, fn := range packingHelpers {
		if !strings.Contains(string(out), ": can inline "+fn+"\n") {
			t.Errorf("%s is not inlinable: keep it within the compiler's budget (go build -gcflags=%s=-m=2 prints its cost)", fn, pkg)
		}
	}
}
