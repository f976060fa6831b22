// Churn: flow completion times under Poisson arrivals — the dynamic
// the paper's long-running fixed population deliberately excludes
// (its §3.2 Limitations), applied to the same bottleneck. Compares the
// paper's drop-tail with the CoDel AQM extension: bufferbloat is an
// FCT tax on short transfers.
//
//	go run ./examples/churn
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ccatscale"
)

func main() {
	setting := ccatscale.CoreScaleScaled(50) // 200 Mbps tier
	setting.Warmup, setting.Stagger = 0, 0   // arrivals start at t=0
	setting.Duration = 40e9                  // 40 s arrival window

	fmt.Println("500 KB mice over four long-lived Cubic elephants pinning the")
	fmt.Println("buffer. FCT quantiles in seconds; lower is better.")
	fmt.Println()
	fmt.Println("load  aqm       completed  p50     p95     p99")
	for _, aqm := range []string{"droptail", "codel"} {
		setting.AQM = aqm
		for _, load := range []float64{0.2, 0.4} {
			size := 500_000.0 // bytes
			// An ordinary run: the elephants are its flows, the mice its
			// arrival process; ctx, budgets, audit and telemetry apply.
			cfg := setting.Build(
				ccatscale.UniformFlows(4, "cubic", 20*time.Millisecond),
				ccatscale.WithSeed(1))
			cfg.Arrivals = &ccatscale.ArrivalSpec{
				CCA:           "reno",
				RTT:           20e6, // 20 ms
				TransferBytes: 500_000,
				PerSecond:     load * float64(setting.Rate) / (size * 8),
			}
			res, err := ccatscale.Run(context.Background(), cfg)
			if err != nil {
				log.Fatal(err)
			}
			a := res.Arrivals
			fmt.Printf("%3.0f%%  %-8s  %9d  %.3f   %.3f   %.3f\n",
				load*100, aqm, a.Completed, a.FCTQuantile(0.5), a.FCTQuantile(0.95), a.FCTQuantile(0.99))
		}
	}
	fmt.Println()
	fmt.Println("Under drop-tail the elephants pin the deep buffer and every short")
	fmt.Println("transfer pays the standing-queue RTT on each round trip; CoDel")
	fmt.Println("keeps the queue near its 5 ms target and the mice finish fast.")
}
