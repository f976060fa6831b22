// Package mathis implements the Mathis et al. (1997) macroscopic TCP
// throughput model and the empirical constant-fitting procedure the
// paper uses to re-derive C in each setting (§4):
//
//	Throughput = MSS · C / (RTT · √p)
//
// The crux of the paper's Finding 1–2 is the interpretation of p: the
// original model defines it as the congestion event rate (one window
// reduction per 1/p packets), which at the edge coincides with the
// packet loss rate but at core scale diverges from it by 6–9× because
// losses arrive in bursts that each trigger a single window halving.
// This package is agnostic: callers fit and predict with whichever p
// they choose, and the experiment harness evaluates both.
package mathis

import (
	"errors"
	"math"

	"ccatscale/internal/metrics"
)

// Sample is one flow's measurement: throughput in bytes/sec, the event
// probability p (loss rate or halving rate, per packet), and the RTT in
// seconds.
type Sample struct {
	// ThroughputBps is the measured goodput in bytes per second.
	ThroughputBps float64
	// P is the congestion signal probability per packet under the
	// chosen interpretation.
	P float64
	// RTTSeconds is the flow's round-trip time in seconds.
	RTTSeconds float64
	// MSSBytes is the segment size in bytes.
	MSSBytes float64
}

// valid reports whether the sample can parameterize the model.
func (s Sample) valid() bool {
	return s.P > 0 && s.RTTSeconds > 0 && s.MSSBytes > 0 && s.ThroughputBps >= 0
}

// basis returns MSS/(RTT·√p) — the model's throughput per unit C.
func (s Sample) basis() float64 {
	return s.MSSBytes / (s.RTTSeconds * math.Sqrt(s.P))
}

// Predict returns the modeled throughput in bytes/sec for constant c.
func Predict(c float64, s Sample) float64 {
	if !s.valid() {
		return 0
	}
	return float64(c * s.basis())
}

// ErrNoSamples indicates a fit over an empty or fully-degenerate
// sample set.
var ErrNoSamples = errors.New("mathis: no usable samples")

// FitC derives the constant C that minimizes the squared prediction
// error over the samples, following the empirical methodology of the
// original paper (and of this paper's Table 1): for the linear model
// T_i = C·b_i with b_i = MSS/(RTT_i·√p_i), least squares gives
// C = Σ T_i·b_i / Σ b_i².
func FitC(samples []Sample) (float64, error) {
	var num, den float64
	for _, s := range samples {
		if !s.valid() {
			continue
		}
		b := s.basis()
		num += float64(s.ThroughputBps * b)
		den += float64(b * b)
	}
	if den == 0 {
		return 0, ErrNoSamples
	}
	return num / den, nil
}

// PredictionErrors returns the per-sample relative prediction error
// |predicted − measured| / measured for constant c, skipping samples
// with zero measured throughput or invalid parameters.
func PredictionErrors(c float64, samples []Sample) []float64 {
	errs := make([]float64, 0, len(samples))
	for _, s := range samples {
		if !s.valid() || s.ThroughputBps == 0 {
			continue
		}
		pred := Predict(c, s)
		errs = append(errs, math.Abs(pred-s.ThroughputBps)/s.ThroughputBps)
	}
	return errs
}

// MedianError returns the median relative prediction error for constant
// c over the samples — the quantity plotted in the paper's Figure 2.
func MedianError(c float64, samples []Sample) float64 {
	return metrics.Median(PredictionErrors(c, samples))
}

// Fit bundles a fitted constant with its goodness measures.
type Fit struct {
	// C is the least-squares Mathis constant.
	C float64
	// MedianErr is the median relative prediction error at C.
	MedianErr float64
	// Samples is the number of usable samples.
	Samples int
}

// FitAndEvaluate fits C and evaluates the fit in one call.
func FitAndEvaluate(samples []Sample) (Fit, error) {
	c, err := FitC(samples)
	if err != nil {
		return Fit{}, err
	}
	n := 0
	for _, s := range samples {
		if s.valid() {
			n++
		}
	}
	return Fit{C: c, MedianErr: MedianError(c, samples), Samples: n}, nil
}
