package netem

import (
	"testing"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
)

// sendEvery schedules one packet into o at each of the given times.
func sendEvery(eng *sim.Engine, o *Outage, times []sim.Time) {
	for i, at := range times {
		seq := int64(i)
		eng.Schedule(at, func() { o.Send(&packet.Packet{Seq: seq}) })
	}
}

func TestOutageDropWindow(t *testing.T) {
	eng := sim.NewEngine()
	var delivered []sim.Time
	o := NewOutage(eng, OutageConfig{
		Windows: []OutageWindow{{Start: 10 * sim.Millisecond, End: 20 * sim.Millisecond}},
	}, func(*packet.Packet) { delivered = append(delivered, eng.Now()) })

	times := []sim.Time{
		5 * sim.Millisecond,  // up
		10 * sim.Millisecond, // dark (Start inclusive)
		15 * sim.Millisecond, // dark
		20 * sim.Millisecond, // up again (End exclusive)
		25 * sim.Millisecond, // up
	}
	sendEvery(eng, o, times)
	eng.Run(sim.Second)

	if o.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", o.Dropped())
	}
	want := []sim.Time{5 * sim.Millisecond, 20 * sim.Millisecond, 25 * sim.Millisecond}
	if len(delivered) != len(want) {
		t.Fatalf("delivered %d packets, want %d", len(delivered), len(want))
	}
	for i := range want {
		if delivered[i] != want[i] {
			t.Fatalf("delivery %d at %v, want %v", i, delivered[i], want[i])
		}
	}
}

func TestOutageHoldFlushesInOrder(t *testing.T) {
	eng := sim.NewEngine()
	type arrival struct {
		at  sim.Time
		seq int64
	}
	var got []arrival
	o := NewOutage(eng, OutageConfig{
		Windows: []OutageWindow{{Start: 10 * sim.Millisecond, End: 30 * sim.Millisecond}},
		Policy:  OutageHold,
	}, func(p *packet.Packet) { got = append(got, arrival{eng.Now(), p.Seq}) })

	sendEvery(eng, o, []sim.Time{
		12 * sim.Millisecond,
		14 * sim.Millisecond,
		16 * sim.Millisecond,
		30 * sim.Millisecond, // arrives as the link returns, after the flush
	})
	eng.Run(sim.Second)

	if o.Dropped() != 0 || o.Flushed() != 3 || o.Held() != 0 {
		t.Fatalf("dropped %d flushed %d held %d, want 0/3/0", o.Dropped(), o.Flushed(), o.Held())
	}
	if len(got) != 4 {
		t.Fatalf("delivered %d, want 4", len(got))
	}
	for i, a := range got {
		if a.seq != int64(i) {
			t.Fatalf("delivery %d carries seq %d: FIFO violated", i, a.seq)
		}
	}
	for _, a := range got[:3] {
		if a.at != 30*sim.Millisecond {
			t.Fatalf("held packet delivered at %v, want flush time 30ms", a.at)
		}
	}
}

func TestOutageHoldCapacityTailDrops(t *testing.T) {
	eng := sim.NewEngine()
	delivered := 0
	drops := 0
	pktWire := (&packet.Packet{Len: 1000}).WireBytes()
	o := NewOutage(eng, OutageConfig{
		Windows:      []OutageWindow{{Start: 0, End: 10 * sim.Millisecond}},
		Policy:       OutageHold,
		HoldCapacity: 2 * pktWire,
		OnDrop:       func(sim.Time, packet.Packet) { drops++ },
	}, func(*packet.Packet) { delivered++ })

	eng.Schedule(sim.Millisecond, func() {
		for i := 0; i < 5; i++ {
			o.Send(&packet.Packet{Len: 1000})
		}
	})
	eng.Run(sim.Second)

	if o.Flushed() != 2 || delivered != 2 {
		t.Fatalf("flushed %d delivered %d, want 2 held packets released", o.Flushed(), delivered)
	}
	if o.Dropped() != 3 || drops != 3 {
		t.Fatalf("dropped %d (callback %d), want 3 over-capacity drops", o.Dropped(), drops)
	}
}

func TestOutageFlapsSchedule(t *testing.T) {
	ws := Flaps(2*sim.Second, 500*sim.Millisecond, 3*sim.Second, 3)
	want := []OutageWindow{
		{2 * sim.Second, 2*sim.Second + 500*sim.Millisecond},
		{5 * sim.Second, 5*sim.Second + 500*sim.Millisecond},
		{8 * sim.Second, 8*sim.Second + 500*sim.Millisecond},
	}
	if len(ws) != len(want) {
		t.Fatalf("got %d windows, want %d", len(ws), len(want))
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Fatalf("window %d = %+v, want %+v", i, ws[i], want[i])
		}
	}
	if Flaps(0, sim.Second, 0, 5) == nil || len(Flaps(0, sim.Second, 0, 5)) != 1 {
		t.Fatal("zero period should yield a single outage")
	}
	if Flaps(0, 0, sim.Second, 5) != nil {
		t.Fatal("zero down-time should yield no outages")
	}
}

func TestOutageDeterministicDropCounts(t *testing.T) {
	run := func() uint64 {
		eng := sim.NewEngine()
		o := NewOutage(eng, OutageConfig{
			Windows: Flaps(5*sim.Millisecond, 2*sim.Millisecond, 10*sim.Millisecond, 4),
		}, func(*packet.Packet) {})
		for i := sim.Time(0); i < 50*sim.Millisecond; i += 100 * sim.Microsecond {
			at := i
			eng.Schedule(at, func() { o.Send(&packet.Packet{}) })
		}
		eng.Run(sim.Second)
		return o.Dropped()
	}
	d1, d2 := run(), run()
	if d1 != d2 {
		t.Fatalf("drop counts diverged: %d vs %d", d1, d2)
	}
	// 4 flaps × 2 ms dark × one packet per 100 µs = 80 arrivals in the
	// dark, [Start, End) inclusive-exclusive.
	if d1 != 80 {
		t.Fatalf("dropped = %d, want 80", d1)
	}
}

func TestOutageValidation(t *testing.T) {
	eng := sim.NewEngine()
	sink := func(*packet.Packet) {}
	for name, fn := range map[string]func(){
		"nil sink": func() { NewOutage(eng, OutageConfig{}, nil) },
		"inverted": func() {
			NewOutage(eng, OutageConfig{Windows: []OutageWindow{{Start: 2, End: 1}}}, sink)
		},
		"overlap": func() {
			NewOutage(eng, OutageConfig{Windows: []OutageWindow{{0, 10}, {5, 15}}}, sink)
		},
		"unsorted": func() {
			NewOutage(eng, OutageConfig{Windows: []OutageWindow{{20, 30}, {0, 10}}}, sink)
		},
		"negative cap": func() {
			NewOutage(eng, OutageConfig{HoldCapacity: -1}, sink)
		},
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
