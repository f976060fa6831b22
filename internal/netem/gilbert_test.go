package netem

import (
	"math"
	"testing"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
)

func TestGilbertStationaryLossAndBadFraction(t *testing.T) {
	eng := sim.NewEngine()
	cfg := GilbertElliottConfig{
		PGoodToBad: 0.01,
		PBadToGood: 0.25,
		LossBad:    1,
	}
	ge := NewGilbertElliott(eng, sim.NewRNG(11), cfg, func(*packet.Packet) {})
	const n = 400000
	for i := 0; i < n; i++ {
		ge.Send(&packet.Packet{})
	}
	wantBad := cfg.StationaryBad() // ≈ 0.0385
	gotBad := float64(ge.BadPackets()) / n
	if math.Abs(gotBad-wantBad) > 0.15*wantBad {
		t.Fatalf("bad-state fraction = %v, want ≈%v", gotBad, wantBad)
	}
	gotLoss := float64(ge.Dropped()) / n
	wantLoss := cfg.StationaryLoss()
	if math.Abs(gotLoss-wantLoss) > 0.15*wantLoss {
		t.Fatalf("loss rate = %v, want ≈%v", gotLoss, wantLoss)
	}
	if ge.Passed()+ge.Dropped() != n || ge.GoodPackets()+ge.BadPackets() != n {
		t.Fatalf("conservation: passed %d dropped %d good %d bad %d",
			ge.Passed(), ge.Dropped(), ge.GoodPackets(), ge.BadPackets())
	}
}

func TestGilbertMeanBurstLength(t *testing.T) {
	eng := sim.NewEngine()
	cfg := SimpleGilbert(0.02, 8) // LossBad=1 ⇒ every Bad packet drops
	ge := NewGilbertElliott(eng, sim.NewRNG(3), cfg, func(*packet.Packet) {})
	const n = 500000
	for i := 0; i < n; i++ {
		ge.Send(&packet.Packet{})
	}
	if ge.Bursts() == 0 {
		t.Fatal("no bursts observed")
	}
	// With LossBad = 1 every Bad-state packet is a drop, so drops per
	// Good→Bad transition estimates the mean burst length 1/PBadToGood.
	gotLen := float64(ge.Dropped()) / float64(ge.Bursts())
	if math.Abs(gotLen-8) > 1 {
		t.Fatalf("mean burst length = %v, want ≈8", gotLen)
	}
	gotLoss := float64(ge.Dropped()) / n
	if math.Abs(gotLoss-0.02) > 0.004 {
		t.Fatalf("loss rate = %v, want ≈0.02 (SimpleGilbert calibration)", gotLoss)
	}
}

func TestGilbertBurstLenOneMatchesBernoulli(t *testing.T) {
	// Mean burst length 1 must degenerate to independent loss: the
	// state after every packet is redrawn without memory of drops.
	cfg := SimpleGilbert(0.1, 1)
	if math.Abs(cfg.StationaryLoss()-0.1) > 1e-12 {
		t.Fatalf("stationary loss = %v, want 0.1", cfg.StationaryLoss())
	}
	if cfg.PBadToGood != 1 {
		t.Fatalf("PBadToGood = %v, want 1", cfg.PBadToGood)
	}
}

func TestGilbertDeterministicUnderFixedSeed(t *testing.T) {
	run := func(seed uint64) (dropped, bursts uint64) {
		eng := sim.NewEngine()
		ge := NewGilbertElliott(eng, sim.NewRNG(seed), SimpleGilbert(0.05, 4), func(*packet.Packet) {})
		for i := 0; i < 100000; i++ {
			ge.Send(&packet.Packet{})
		}
		return ge.Dropped(), ge.Bursts()
	}
	d1, b1 := run(42)
	d2, b2 := run(42)
	if d1 != d2 || b1 != b2 {
		t.Fatalf("same seed diverged: drops %d vs %d, bursts %d vs %d", d1, d2, b1, b2)
	}
	d3, _ := run(43)
	if d3 == d1 {
		t.Fatalf("different seeds produced identical drop counts (%d): RNG not consumed?", d1)
	}
}

func TestGilbertDropCallbackAndStartBad(t *testing.T) {
	eng := sim.NewEngine()
	drops := 0
	ge := NewGilbertElliott(eng, sim.NewRNG(5), GilbertElliottConfig{
		PGoodToBad: 0.0, // never re-enter Bad…
		PBadToGood: 1.0, // …and leave it after the first packet
		LossBad:    1,
		StartBad:   true,
		OnDrop:     func(sim.Time, packet.Packet) { drops++ },
	}, func(*packet.Packet) {})
	for i := 0; i < 100; i++ {
		ge.Send(&packet.Packet{})
	}
	if ge.Dropped() != 1 || drops != 1 {
		t.Fatalf("dropped = %d (callback %d), want exactly the first packet", ge.Dropped(), drops)
	}
	if ge.Passed() != 99 {
		t.Fatalf("passed = %d, want 99", ge.Passed())
	}
}

func TestGilbertValidation(t *testing.T) {
	eng := sim.NewEngine()
	sink := func(*packet.Packet) {}
	for name, fn := range map[string]func(){
		"nil sink": func() { NewGilbertElliott(eng, sim.NewRNG(1), GilbertElliottConfig{}, nil) },
		"nil rng":  func() { NewGilbertElliott(eng, nil, GilbertElliottConfig{}, sink) },
		"p>1": func() {
			NewGilbertElliott(eng, sim.NewRNG(1), GilbertElliottConfig{PGoodToBad: 1.5, PBadToGood: 1}, sink)
		},
		"r<0":           func() { NewGilbertElliott(eng, sim.NewRNG(1), GilbertElliottConfig{PBadToGood: -0.1}, sink) },
		"absorbing bad": func() { NewGilbertElliott(eng, sim.NewRNG(1), GilbertElliottConfig{PGoodToBad: 0.1}, sink) },
		"lossGood=1":    func() { NewGilbertElliott(eng, sim.NewRNG(1), GilbertElliottConfig{PBadToGood: 1, LossGood: 1}, sink) },
		"lossBad>1":     func() { NewGilbertElliott(eng, sim.NewRNG(1), GilbertElliottConfig{PBadToGood: 1, LossBad: 1.1}, sink) },
		"simple p>=1":   func() { SimpleGilbert(1, 4) },
		"simple len<1":  func() { SimpleGilbert(0.1, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
