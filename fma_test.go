package ccatscale

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// fusionFreePackages are the packages whose floating-point arithmetic
// must round the same way on every GOARCH. The Go spec lets a compiler
// fuse x*y + z into one multiply-add that rounds once instead of twice;
// amd64 never does, arm64, ppc64le and s390x do. An explicit
// float64(x*y) forbids it.
var fusionFreePackages = []string{
	"ccatscale/internal/cca",
	"ccatscale/internal/core",
	"ccatscale/internal/mathis",
	"ccatscale/internal/metrics",
	"ccatscale/internal/netem",
	"ccatscale/internal/sim",
	"ccatscale/internal/tcp",
	"ccatscale/internal/trace",
}

// fusedMnemonic matches the fused multiply-add and multiply-subtract
// instructions of arm64 (FMADDD, FNMSUBD, …), ppc64le and s390x (FMADD,
// FMSUB, …) in `go build -gcflags=-S` output.
var fusedMnemonic = regexp.MustCompile(`\tF(N)?M(ADD|SUB)[SD]?\t`)

// TestNoFusedMultiplyAdd cross-compiles fusionFreePackages for each
// architecture that fuses, with the installed toolchain and nothing
// fetched, and fails on any fused multiply-add in their assembly. The
// first run compiles the standard library for each target (≈10 s an
// architecture); later runs read the build cache.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	args := []string{"build"}
	for _, pkg := range fusionFreePackages {
		args = append(args, "-gcflags="+pkg+"=-S")
	}
	args = append(args, fusionFreePackages...)
	for _, arch := range []string{"arm64", "ppc64le", "s390x"} {
		t.Run(arch, func(t *testing.T) {
			cmd := exec.Command(goBin, args...)
			cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch,
				"CGO_ENABLED=0", "GOTOOLCHAIN=local", "GOPROXY=off")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
			}
			if !strings.Contains(string(out), " STEXT ") {
				t.Fatalf("no assembly listing in the build output:\n%s", out)
			}
			for _, line := range strings.Split(string(out), "\n") {
				if fusedMnemonic.MatchString(line) {
					t.Errorf("fused multiply-add: %s", strings.TrimSpace(line))
				}
			}
		})
	}
}
