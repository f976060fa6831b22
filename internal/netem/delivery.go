package netem

import (
	"ccatscale/internal/packet"
)

// delivery is a reusable bound-method event: a packet plus the sink it
// is destined for, with a pre-created func() that delivers and returns
// the struct to its pool, so scheduling one costs no allocation in
// steady state. It carries the one packet stream that can reorder — the
// jitter stage, whose per-packet random delay lets a packet overtake its
// predecessor — which therefore needs a heap entry per packet; every
// constant-delay stream rides a sim.Lane instead.
type delivery struct {
	p    packet.Packet
	sink RefSink
	pool *deliveryPool
	fn   func()
}

// deliveryPool recycles delivery structs. Pools are per-element and the
// simulation is single-threaded, so there is no locking.
type deliveryPool struct {
	free []*delivery
}

func newDeliveryPool() *deliveryPool {
	return &deliveryPool{}
}

// get returns a delivery armed with sink and a copy of *p. The returned
// struct's fn field is the event callback to schedule.
func (dp *deliveryPool) get(sink RefSink, p *packet.Packet) *delivery {
	var d *delivery
	if n := len(dp.free); n > 0 {
		d = dp.free[n-1]
		dp.free[n-1] = nil
		dp.free = dp.free[:n-1]
	} else {
		d = &delivery{pool: dp}
		d.fn = d.run // bound once; reused for the struct's lifetime
	}
	d.sink = sink
	d.p = *p
	return d
}

// run hands the sink the packet where it lies, then recycles the
// struct; a sink that sends more traffic through the same element
// meanwhile draws another from the pool.
func (d *delivery) run() {
	d.sink(&d.p)
	d.sink = nil
	d.pool.free = append(d.pool.free, d)
}
