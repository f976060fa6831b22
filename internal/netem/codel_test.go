package netem

import (
	"testing"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

func TestCoDelPassThroughBelowTarget(t *testing.T) {
	eng := sim.NewEngine()
	q := NewCoDelQueue(eng.Now, units.MB, nil)
	// Packets dequeued immediately (zero sojourn): no AQM drops.
	for i := int64(0); i < 100; i++ {
		if !push(q, dataPkt(0, i, 1448)) {
			t.Fatal("push rejected below capacity")
		}
		p, ok := pop(q)
		if !ok || p.Seq != i {
			t.Fatalf("pop %d: %v %v", i, p.Seq, ok)
		}
	}
	if q.AQMDrops() != 0 || q.TailDrops() != 0 {
		t.Fatalf("drops: aqm=%d tail=%d", q.AQMDrops(), q.TailDrops())
	}
}

func TestCoDelDropsUnderStandingQueue(t *testing.T) {
	eng := sim.NewEngine()
	drops := 0
	q := NewCoDelQueue(eng.Now, 100*units.MB, func(sim.Time, packet.Packet) { drops++ })
	// Build a standing queue: 500 packets enqueued at t=0, dequeued
	// slowly so sojourn stays far above the 5 ms target for well over
	// an interval.
	for i := int64(0); i < 500; i++ {
		push(q, dataPkt(0, i, 1448))
	}
	delivered := 0
	var step func()
	step = func() {
		if _, ok := pop(q); ok {
			delivered++
		}
		if q.Len() > 0 {
			eng.After(2*sim.Millisecond, step)
		}
	}
	eng.Schedule(0, step)
	eng.Run(10 * sim.Second)
	if q.AQMDrops() == 0 {
		t.Fatal("CoDel never dropped despite a persistent standing queue")
	}
	if uint64(drops) != q.AQMDrops()+q.TailDrops() {
		t.Fatalf("callback count %d != %d+%d", drops, q.AQMDrops(), q.TailDrops())
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestCoDelTailDropAtCapacity(t *testing.T) {
	eng := sim.NewEngine()
	q := NewCoDelQueue(eng.Now, 2*1518, nil)
	push(q, dataPkt(0, 0, 1448))
	push(q, dataPkt(0, 1, 1448))
	if push(q, dataPkt(0, 2, 1448)) {
		t.Fatal("push above capacity accepted")
	}
	if q.TailDrops() != 1 {
		t.Fatalf("TailDrops = %d", q.TailDrops())
	}
}

func TestCoDelValidation(t *testing.T) {
	eng := sim.NewEngine()
	for name, fn := range map[string]func(){
		"zero cap":  func() { NewCoDelQueue(eng.Now, 0, nil) },
		"nil clock": func() { NewCoDelQueue(nil, units.MB, nil) },
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
