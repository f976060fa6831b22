//go:build chaos

package main

import (
	"fmt"
	"os"
	"strconv"

	"ccatscale/internal/store"
	"ccatscale/internal/store/chaostest"
)

// sweepFS, in the chaos build, wraps the real filesystem with the
// crash-injection harness. Two environment variables schedule the
// crash:
//
//	CCATSCALE_CHAOS_KILL=N  die at the Nth syscall boundary of the
//	                        durability protocol (0 or unset = never)
//	CCATSCALE_CHAOS_TORN=N  persist only N bytes of the write in
//	                        flight when the kill lands on a write
//	                        (-1 = the whole write; default 0)
//
// The kill is a real os.Exit(137) — the same observable behavior as
// kill -9 — so the CI smoke can crash a live sweep at a seeded point,
// run the same command again, and prove the recovered tables
// byte-identical to an uninterrupted run's.
func sweepFS() store.FS {
	kill, err := parseChaosEnv("CCATSCALE_CHAOS_KILL", 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(2)
	}
	torn, err := parseChaosEnv("CCATSCALE_CHAOS_TORN", 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(2)
	}
	if kill == 0 {
		return store.OSFS()
	}
	return chaostest.Wrap(store.OSFS(), chaostest.Plan{
		KillAt:    uint64(kill),
		TornBytes: int(torn),
		OnKill: func() {
			fmt.Fprintf(os.Stderr, "reproduce: chaos kill at syscall boundary %d\n", kill)
			os.Exit(137)
		},
	})
}

func parseChaosEnv(name string, def int64) (int64, error) {
	v := os.Getenv(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: %v", name, v, err)
	}
	return n, nil
}
