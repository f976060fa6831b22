package main

import (
	"fmt"
	"io"
	"os"

	"ccatscale/internal/core"
	"ccatscale/internal/experiments"
)

// replay re-runs the config of one failure record — the <key>.failed.json
// the shared attempt parks for every failed run, a sweep's or ccserve's.
// The simulation is deterministic, so a failure that is not fixed recurs
// at the same virtual time after the same events: it is printed and the
// exit code is 1. A run that now completes prints its per-flow table and
// exits 0. A record that cannot be read is a usage error.
func replay(path string, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	var re *core.RunError
	if err == nil {
		re, err = core.ReadRunError(f)
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(stderr, "reproduce:", err)
		return 2
	}
	fmt.Fprintf(stderr, "reproduce: replaying %s: %s (seed %d, failed at vt=%v after %d events)\n",
		path, re.Reason, re.Seed, re.VirtualTime, re.Events)
	res, err := core.Run(re.Config)
	if err != nil {
		fmt.Fprintln(stderr, "reproduce: failure reproduced:", err)
		return 1
	}
	tab := experiments.RunTable("Replay of "+path+": no failure this time", res)
	if err := tab.WriteText(stdout); err != nil {
		fmt.Fprintln(stderr, "reproduce:", err)
		return 1
	}
	return 0
}
