package netem

import (
	"math"
	"testing"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
)

func TestImpairmentLossRate(t *testing.T) {
	eng := sim.NewEngine()
	delivered := 0
	im := NewImpairment(eng, sim.NewRNG(1), ImpairmentConfig{LossProb: 0.1},
		func(*packet.Packet) { delivered++ })
	const n = 50000
	for i := 0; i < n; i++ {
		im.Send(&packet.Packet{})
	}
	got := float64(im.Dropped()) / n
	if math.Abs(got-0.1) > 0.01 {
		t.Fatalf("drop rate = %v, want ≈0.1", got)
	}
	if im.Passed() != uint64(delivered) || im.Passed()+im.Dropped() != n {
		t.Fatalf("conservation: passed %d dropped %d delivered %d", im.Passed(), im.Dropped(), delivered)
	}
}

func TestImpairmentZeroLossPassesAll(t *testing.T) {
	eng := sim.NewEngine()
	delivered := 0
	im := NewImpairment(eng, sim.NewRNG(1), ImpairmentConfig{},
		func(*packet.Packet) { delivered++ })
	for i := 0; i < 100; i++ {
		im.Send(&packet.Packet{})
	}
	if delivered != 100 || im.Dropped() != 0 {
		t.Fatalf("delivered = %d dropped = %d", delivered, im.Dropped())
	}
}

func TestImpairmentJitterRange(t *testing.T) {
	eng := sim.NewEngine()
	var arrivals []sim.Time
	im := NewImpairment(eng, sim.NewRNG(2), ImpairmentConfig{Jitter: 10 * sim.Millisecond},
		func(*packet.Packet) { arrivals = append(arrivals, eng.Now()) })
	eng.Schedule(0, func() {
		for i := 0; i < 1000; i++ {
			im.Send(&packet.Packet{})
		}
	})
	eng.Run(sim.Second)
	if len(arrivals) != 1000 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	var max sim.Time
	for _, a := range arrivals {
		if a >= 10*sim.Millisecond {
			t.Fatalf("jitter %v outside [0, 10ms)", a)
		}
		if a > max {
			max = a
		}
	}
	if max < 5*sim.Millisecond {
		t.Fatalf("jitter never exceeded 5ms (max %v): not uniform", max)
	}
}

// TestImpairmentJitterReorders documents the element's netem-faithful
// behavior: jitter larger than the packet spacing reorders packets,
// because (like tc-netem without a reorder-correction queue) each
// packet draws an independent delay.
func TestImpairmentJitterReorders(t *testing.T) {
	eng := sim.NewEngine()
	var arrivals []int64
	im := NewImpairment(eng, sim.NewRNG(4), ImpairmentConfig{Jitter: 10 * sim.Millisecond},
		func(p *packet.Packet) { arrivals = append(arrivals, p.Seq) })
	// Packets enter 1 ms apart with up to 10 ms of jitter: any packet
	// can overtake up to ~9 predecessors.
	const n = 500
	for i := 0; i < n; i++ {
		seq := int64(i)
		eng.Schedule(sim.Time(i)*sim.Millisecond, func() {
			im.Send(&packet.Packet{Seq: seq})
		})
	}
	eng.Run(10 * sim.Second)
	if len(arrivals) != n {
		t.Fatalf("delivered %d of %d packets", len(arrivals), n)
	}
	if im.Passed() != n || im.Dropped() != 0 {
		t.Fatalf("counters: passed %d dropped %d, want %d/0", im.Passed(), im.Dropped(), n)
	}
	seen := make([]bool, n)
	inversions := 0
	for i, seq := range arrivals {
		if seq < 0 || seq >= n || seen[seq] {
			t.Fatalf("arrival %d: bad or duplicate seq %d", i, seq)
		}
		seen[seq] = true
		if i > 0 && seq < arrivals[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("10ms jitter over 1ms spacing produced no reordering")
	}
	t.Logf("%d adjacent inversions across %d packets", inversions, n)
}

// TestImpairmentJitterKeepsOrderWhenSmall is the complement: jitter
// strictly smaller than the packet spacing cannot reorder.
func TestImpairmentJitterKeepsOrderWhenSmall(t *testing.T) {
	eng := sim.NewEngine()
	var arrivals []int64
	im := NewImpairment(eng, sim.NewRNG(5), ImpairmentConfig{Jitter: sim.Millisecond},
		func(p *packet.Packet) { arrivals = append(arrivals, p.Seq) })
	const n = 200
	for i := 0; i < n; i++ {
		seq := int64(i)
		eng.Schedule(sim.Time(i)*2*sim.Millisecond, func() {
			im.Send(&packet.Packet{Seq: seq})
		})
	}
	eng.Run(10 * sim.Second)
	if len(arrivals) != n {
		t.Fatalf("delivered %d of %d packets", len(arrivals), n)
	}
	for i, seq := range arrivals {
		if seq != int64(i) {
			t.Fatalf("arrival %d: seq %d out of order despite sub-spacing jitter", i, seq)
		}
	}
}

func TestImpairmentDropCallback(t *testing.T) {
	eng := sim.NewEngine()
	drops := 0
	im := NewImpairment(eng, sim.NewRNG(3), ImpairmentConfig{
		LossProb: 0.5,
		OnDrop:   func(sim.Time, packet.Packet) { drops++ },
	}, func(*packet.Packet) {})
	for i := 0; i < 1000; i++ {
		im.Send(&packet.Packet{})
	}
	if uint64(drops) != im.Dropped() {
		t.Fatalf("callback count %d != dropped %d", drops, im.Dropped())
	}
}

func TestImpairmentValidation(t *testing.T) {
	eng := sim.NewEngine()
	sink := func(*packet.Packet) {}
	for name, fn := range map[string]func(){
		"nil sink": func() { NewImpairment(eng, sim.NewRNG(1), ImpairmentConfig{}, nil) },
		"nil rng":  func() { NewImpairment(eng, nil, ImpairmentConfig{}, sink) },
		"p=1":      func() { NewImpairment(eng, sim.NewRNG(1), ImpairmentConfig{LossProb: 1}, sink) },
		"p<0":      func() { NewImpairment(eng, sim.NewRNG(1), ImpairmentConfig{LossProb: -0.1}, sink) },
		"jitter<0": func() { NewImpairment(eng, sim.NewRNG(1), ImpairmentConfig{Jitter: -1}, sink) },
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
