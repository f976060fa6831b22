package trace

import (
	"bytes"
	"strings"
	"testing"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

func TestThroughputSeriesRates(t *testing.T) {
	eng := sim.NewEngine()
	var delivered units.ByteCount
	// A synthetic flow delivering 1 MB/s.
	var feed func()
	feed = func() {
		delivered += 100 * units.KB
		eng.After(100*sim.Millisecond, feed)
	}
	eng.Schedule(0, feed)

	ts := NewThroughputSeries(eng, sim.Second, []string{"flow0"},
		func() []units.ByteCount { return []units.ByteCount{delivered} }, true, nil)
	ts.Start(0)
	eng.Run(5 * sim.Second)
	pts := ts.Points()
	if len(pts) < 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		// 1 MB/s = 8 Mbps ±1 sample of jitter.
		if p.Rates[0] < 7*units.MbitPerSec || p.Rates[0] > 9*units.MbitPerSec {
			t.Fatalf("rate at %v = %v, want ≈8Mbps", p.At, p.Rates[0])
		}
	}
}

func TestThroughputSeriesCSV(t *testing.T) {
	eng := sim.NewEngine()
	var buf bytes.Buffer
	n := units.ByteCount(0)
	ts := NewThroughputSeries(eng, sim.Second, []string{"a", "b"},
		func() []units.ByteCount {
			n += 1000
			return []units.ByteCount{n, 2 * n}
		}, false, &buf)
	ts.Start(0)
	eng.Run(3 * sim.Second)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "seconds,a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) < 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "1.000,8000,") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestThroughputSeriesStop(t *testing.T) {
	eng := sim.NewEngine()
	calls := 0
	ts := NewThroughputSeries(eng, sim.Second, nil,
		func() []units.ByteCount { calls++; return nil }, true, nil)
	ts.Start(0)
	eng.Schedule(2500*sim.Millisecond, ts.Stop)
	eng.Run(10 * sim.Second)
	if calls != 3 { // t=0 baseline, t=1, t=2
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestQueueLogOverflow(t *testing.T) {
	l := NewQueueLog(2)
	for i := 0; i < 5; i++ {
		l.OnDrop(sim.Time(i)*sim.Second, packet.Packet{})
	}
	if l.TimesLen() != 2 {
		t.Fatalf("TimesLen = %d, want 2", l.TimesLen())
	}
	if l.Overflow() != 3 {
		t.Fatalf("Overflow = %d, want 3", l.Overflow())
	}
	if l.Total() != 5 {
		t.Fatalf("Total = %d, want 5 (counts stay exact)", l.Total())
	}
}

func TestThroughputSeriesValidation(t *testing.T) {
	eng := sim.NewEngine()
	for name, fn := range map[string]func(){
		"zero interval": func() {
			NewThroughputSeries(eng, 0, nil, func() []units.ByteCount { return nil }, false, nil)
		},
		"nil reader": func() { NewThroughputSeries(eng, sim.Second, nil, nil, false, nil) },
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
