package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"ccatscale/internal/netem"
	"ccatscale/internal/sim"
)

// Burst loss and link outages — the impairment regimes the paper's clean
// testbed excludes — are link stages, so their specs live in netem;
// RunConfig's fields declare them on the dumbbell's one link, and this
// file parses them from command-line flags.

// BurstLossSpec configures Gilbert–Elliott burst loss (MeanBurstLen = 1
// is exactly RandomLoss).
type BurstLossSpec = netem.BurstLossSpec

// OutageSpec schedules deterministic link outages.
type OutageSpec = netem.OutageSpec

// ParseBurstLoss parses the -burst flag syntax "meanLoss,meanBurstLen".
func ParseBurstLoss(text string) (*BurstLossSpec, error) {
	parts := strings.Split(text, ",")
	if len(parts) != 2 {
		return nil, fmt.Errorf("core: burst spec %q, want \"meanLoss,meanBurstLen\" (e.g. \"0.005,8\")", text)
	}
	loss, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return nil, fmt.Errorf("core: burst mean loss: %w", err)
	}
	blen, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return nil, fmt.Errorf("core: burst mean length: %w", err)
	}
	spec := &BurstLossSpec{MeanLoss: loss, MeanBurstLen: blen}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return spec, nil
}

// ParseOutage parses the -outage flag syntax
// "start,down,period,count[,hold]".
func ParseOutage(text string) (*OutageSpec, error) {
	parts := strings.Split(text, ",")
	if len(parts) < 4 || len(parts) > 5 {
		return nil, fmt.Errorf("core: outage spec %q, want \"start,down,period,count[,hold]\" (e.g. \"2s,1s,10s,3\")", text)
	}
	durs := make([]sim.Time, 3)
	for i, name := range []string{"start", "down", "period"} {
		d, err := time.ParseDuration(strings.TrimSpace(parts[i]))
		if err != nil {
			return nil, fmt.Errorf("core: outage %s: %w", name, err)
		}
		durs[i] = sim.Duration(d)
	}
	count, err := strconv.Atoi(strings.TrimSpace(parts[3]))
	if err != nil {
		return nil, fmt.Errorf("core: outage count: %w", err)
	}
	spec := &OutageSpec{Start: durs[0], Down: durs[1], Period: durs[2], Count: count}
	if len(parts) == 5 {
		switch p := strings.TrimSpace(parts[4]); p {
		case "hold":
			spec.Hold = true
		case "drop", "":
		default:
			return nil, fmt.Errorf("core: outage policy %q, want \"drop\" or \"hold\"", p)
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return spec, nil
}
