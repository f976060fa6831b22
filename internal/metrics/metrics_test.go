package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestJFIEqualShares(t *testing.T) {
	if got := JFI([]float64{5, 5, 5, 5}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("JFI equal = %v, want 1", got)
	}
}

func TestJFISingleHog(t *testing.T) {
	xs := make([]float64, 10)
	xs[0] = 100
	if got := JFI(xs); !almostEqual(got, 0.1, 1e-12) {
		t.Fatalf("JFI hog = %v, want 1/n = 0.1", got)
	}
}

func TestJFIKnownValue(t *testing.T) {
	// Jain's example: allocations 1,2,3 → 36/(3·14) = 6/7.
	if got := JFI([]float64{1, 2, 3}); !almostEqual(got, 6.0/7.0, 1e-12) {
		t.Fatalf("JFI = %v, want 6/7", got)
	}
}

func TestJFIEdgeCases(t *testing.T) {
	if JFI(nil) != 0 {
		t.Fatal("JFI(nil) != 0")
	}
	if JFI([]float64{0, 0}) != 1 {
		t.Fatal("JFI all-zero != 1")
	}
}

// Property: JFI ∈ [1/n, 1], and is scale-invariant.
func TestJFIBoundsAndScaleInvariance(t *testing.T) {
	f := func(raw []uint16, scale uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		any := false
		for i, r := range raw {
			xs[i] = float64(r)
			if r != 0 {
				any = true
			}
		}
		if !any {
			return true
		}
		j := JFI(xs)
		n := float64(len(xs))
		if j < 1/n-1e-9 || j > 1+1e-9 {
			return false
		}
		k := float64(scale%7) + 1
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * k
		}
		return almostEqual(JFI(scaled), j, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBurstinessPeriodic(t *testing.T) {
	// Perfectly periodic events: σ = 0 → B = −1.
	times := make([]float64, 100)
	for i := range times {
		times[i] = float64(i)
	}
	if got := Burstiness(times); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("periodic burstiness = %v, want -1", got)
	}
}

func TestBurstinessPoissonNearZero(t *testing.T) {
	// Exponential inter-arrivals (σ = μ) → B ≈ 0. Use an inverse-CDF
	// with a deterministic low-discrepancy driver.
	var times []float64
	tcur := 0.0
	for i := 1; i <= 5000; i++ {
		u := (float64(i%997) + 0.5) / 997
		tcur += -math.Log(1 - u)
		times = append(times, tcur)
	}
	if got := Burstiness(times); math.Abs(got) > 0.1 {
		t.Fatalf("poisson burstiness = %v, want ≈0", got)
	}
}

func TestBurstinessBurstyPositive(t *testing.T) {
	// Tight bursts separated by long gaps → B well above 0.
	var times []float64
	base := 0.0
	for burst := 0; burst < 50; burst++ {
		for i := 0; i < 20; i++ {
			times = append(times, base+float64(i)*1e-4)
		}
		base += 10
	}
	got := Burstiness(times)
	if got < 0.5 {
		t.Fatalf("bursty burstiness = %v, want > 0.5", got)
	}
}

func TestBurstinessUnsortedInput(t *testing.T) {
	sorted := []float64{0, 1, 2, 3, 10, 11, 12}
	shuffled := []float64{10, 1, 12, 0, 3, 11, 2}
	if Burstiness(sorted) != Burstiness(shuffled) {
		t.Fatal("burstiness depends on input order")
	}
}

func TestBurstinessTooFewEvents(t *testing.T) {
	if Burstiness([]float64{1, 2}) != 0 || Burstiness(nil) != 0 {
		t.Fatal("short input should give 0")
	}
}

// burstinessFromGaps is the score as Burstiness computed it before the
// gap walk: a slice of the sorted times' gaps, then Mean and StdDev.
func burstinessFromGaps(times []float64) float64 {
	if len(times) < 3 {
		return 0
	}
	ts := append([]float64(nil), times...)
	sort.Float64s(ts)
	gaps := make([]float64, 0, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		gaps = append(gaps, ts[i]-ts[i-1])
	}
	mu, sigma := Mean(gaps), StdDev(gaps)
	if sigma+mu == 0 {
		return 0
	}
	return (sigma - mu) / (sigma + mu)
}

// TestBurstinessMatchesMeanAndStdDev pins BurstinessOfGaps's two
// passes to the Mean/StdDev arithmetic bit for bit, over random event
// times with ties, unsorted, and at the short lengths that return 0.
func TestBurstinessMatchesMeanAndStdDev(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{0, 1, 2, 3, 4, 17, 1000, 5000} {
		for trial := 0; trial < 20; trial++ {
			times := make([]float64, n)
			for i := range times {
				times[i] = float64(rng.Intn(n+1)) * rng.ExpFloat64() // ties when the draws repeat
			}
			if got, want := Burstiness(times), burstinessFromGaps(times); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d trial %d: Burstiness %v, Mean/StdDev over the gaps %v", n, trial, got, want)
			}
		}
	}
	if got := Burstiness([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("all ties: %v, want 0", got)
	}
}

// Property: B always lies in [−1, 1].
func TestBurstinessBoundsProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) < 3 {
			return true
		}
		ts := make([]float64, len(raw))
		for i, r := range raw {
			ts[i] = float64(r) / 1000
		}
		b := Burstiness(ts)
		return b >= -1-1e-9 && b <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := Median(xs); got != 2 {
		t.Fatalf("Median = %v", got)
	}
	even := []float64{4, 1, 3, 2}
	if got := Median(even); got != 2.5 {
		t.Fatalf("Median even = %v", got)
	}
	if got := Quantile(even, 0); got != 1 {
		t.Fatalf("Q0 = %v", got)
	}
	if got := Quantile(even, 1); got != 4 {
		t.Fatalf("Q1 = %v", got)
	}
	if got := Quantile(even, 0.25); got != 1.75 {
		t.Fatalf("Q.25 = %v", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("Quantile(nil) != 0")
	}
	// Out-of-range q clamps.
	if Quantile(even, -1) != 1 || Quantile(even, 2) != 4 {
		t.Fatal("q clamp broken")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if Mean(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("empty/short input handling")
	}
}

func TestShareAndSum(t *testing.T) {
	if Share(25, 100) != 0.25 {
		t.Fatal("Share")
	}
	if Share(1, 0) != 0 {
		t.Fatal("Share zero total")
	}
	if Sum([]float64{1, 2, 3}) != 6 {
		t.Fatal("Sum")
	}
}
