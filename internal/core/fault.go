package core

import "ccatscale/internal/netem"

// Burst loss and link outages — the impairment regimes the paper's clean
// testbed excludes — are link stages, so their specs live in netem;
// RunConfig's fields declare them on the dumbbell's one link.

// BurstLossSpec configures Gilbert–Elliott burst loss (MeanBurstLen = 1
// is exactly RandomLoss).
type BurstLossSpec = netem.BurstLossSpec

// OutageSpec schedules deterministic link outages.
type OutageSpec = netem.OutageSpec
