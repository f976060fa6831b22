package ccatscale_test

import (
	"fmt"

	"ccatscale/internal/core"
	"ccatscale/internal/metrics"
	"ccatscale/internal/sim"
	"ccatscale/internal/telemetry"
)

// ExampleJFI reproduces the fairness arithmetic of the paper's §5:
// equal shares score 1, a single hog among ten flows scores 1/n.
func ExampleJFI() {
	equal := metrics.JFI([]float64{5, 5, 5, 5})
	hog := metrics.JFI([]float64{100, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	fmt.Printf("equal: %.2f hog: %.2f\n", equal, hog)
	// Output: equal: 1.00 hog: 0.10
}

// ExampleBurstiness contrasts periodic and clustered event streams,
// the §4 loss-burstiness measurement.
func ExampleBurstiness() {
	periodic := metrics.Burstiness([]float64{0, 1, 2, 3, 4, 5})
	bursty := metrics.Burstiness([]float64{0, 0.01, 0.02, 10, 10.01, 10.02, 20, 20.01, 20.02})
	fmt.Printf("periodic: %.0f bursty: %.2f\n", periodic, bursty)
	// Output: periodic: -1 bursty: 0.27
}

// ExampleRun executes a minimal deterministic experiment end to end.
func ExampleRun() {
	setting := core.CoreScaleScaled(100) // 100 Mbps tier
	setting.Warmup = 5 * sim.Second
	setting.Duration = 20 * sim.Second
	cfg := setting.Build(
		core.UniformFlows(4, "reno", 20*sim.Millisecond),
		core.WithSeed(1))
	res, err := core.Run(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("flows: %d, utilization > 90%%: %v\n",
		len(res.Flows), res.Utilization > 0.9)
	// Output: flows: 4, utilization > 90%: true
}

// ExampleRun_telemetry attaches a telemetry collector to a run. The
// collector observes loss episodes without perturbing the simulation:
// the run's results are bit-identical with or without it.
func ExampleRun_telemetry() {
	setting := core.CoreScaleScaled(100)
	setting.Warmup = 5 * sim.Second
	setting.Duration = 20 * sim.Second

	var losses int
	counter := telemetry.CollectorFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.KindLoss {
			losses++
		}
	})
	cfg := setting.Build(
		core.UniformFlows(4, "reno", 20*sim.Millisecond),
		core.WithSeed(1),
		core.WithRunCollector(counter))
	res, err := core.Run(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("saw loss episodes: %v, utilization > 90%%: %v\n",
		losses > 0, res.Utilization > 0.9)
	// Output: saw loss episodes: true, utilization > 90%: true
}
