package mathis_test

import (
	"fmt"

	"ccatscale/internal/mathis"
)

// ExamplePredict evaluates the Mathis model at the paper's parameters:
// MSS 1448, 20 ms RTT, 1 % congestion-event rate.
func ExamplePredict() {
	bps := mathis.Predict(1.0, mathis.Sample{P: 0.01, RTTSeconds: 0.02, MSSBytes: 1448})
	fmt.Printf("%.0f bytes/sec\n", bps)
	// Output: 724000 bytes/sec
}
