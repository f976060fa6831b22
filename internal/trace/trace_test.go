package trace

import (
	"testing"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
)

func TestQueueLogCounts(t *testing.T) {
	l := NewQueueLog(0)
	l.OnDrop(sim.Second, packet.Packet{Flow: 0})
	l.OnDrop(2*sim.Second, packet.Packet{Flow: 0})
	l.OnDrop(3*sim.Second, packet.Packet{Flow: 1})
	if l.Total() != 3 || l.Flow(0) != 2 || l.Flow(1) != 1 || l.Flow(9) != 0 {
		t.Fatalf("counts wrong: total=%d", l.Total())
	}
	ts := l.TimesSeconds()
	if len(ts) != 3 || ts[0] != 1 || ts[2] != 3 {
		t.Fatalf("times = %v", ts)
	}
}

func TestQueueLogWindowStartExcludesWarmup(t *testing.T) {
	l := NewQueueLog(0)
	l.SetWindowStart(5 * sim.Second)
	l.OnDrop(sim.Second, packet.Packet{Flow: 0})
	l.OnDrop(6*sim.Second, packet.Packet{Flow: 0})
	if l.Total() != 2 {
		t.Fatalf("Total = %d (warm-up drops must still count)", l.Total())
	}
	if ts := l.TimesSeconds(); len(ts) != 1 || ts[0] != 6 {
		t.Fatalf("times = %v, warm-up timestamp not excluded", ts)
	}
}

func TestQueueLogTimestampCap(t *testing.T) {
	l := NewQueueLog(2)
	for i := 0; i < 5; i++ {
		l.OnDrop(sim.Time(i), packet.Packet{})
	}
	if l.Total() != 5 {
		t.Fatalf("Total = %d", l.Total())
	}
	if len(l.TimesSeconds()) != 2 {
		t.Fatalf("timestamp cap not applied: %d", len(l.TimesSeconds()))
	}
}
