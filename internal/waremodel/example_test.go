package waremodel_test

import (
	"fmt"

	"ccatscale/internal/waremodel"
)

// ExampleSingleBBRShare shows the Ware et al. prediction the paper
// validates in Figures 6–7: on a deep buffer, a cap-limited BBR
// aggregate settles at a fixed link share regardless of how many
// loss-based flows it faces.
func ExampleSingleBBRShare() {
	fmt.Printf("deep buffer: %.0f%%\n", waremodel.SingleBBRShare(15)*100)
	// Output: deep buffer: 50%
}
