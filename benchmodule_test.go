package ccatscale

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets compiles and vets bench/, the benchmark's own
// module. It drives the simulator through exported by-value edges —
// netem.Sink, Port.Send, Pipe.Send, the Fabric interface
// (Topology.SendData, SetEndpoints), Receiver.OnData, Sender.OnAck,
// tcp.Config.Output — each an adapter over the by-reference path the
// module itself uses, and `go build ./...` here does not compile it:
// without this test a change to one of those signatures would first
// fail when the benchmark runs.
func TestBenchModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "bench"
	// The module resolves ccatscale from this checkout by a replace
	// directive; nothing may be fetched.
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
