package netem

import (
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
)

// Pipe is a fixed-delay, infinite-capacity propagation element: the
// simulated counterpart of the netem delay the paper installs at the
// receiver to set each flow's base RTT, and of the (never-congested)
// 25 Gbps edge links. Packets entering a pipe emerge at the sink exactly
// Delay later, in order.
type Pipe struct {
	delay sim.Time
	lane  *sim.Lane[packet.Packet]
}

// NewPipe builds a delay line of the given one-way latency.
func NewPipe(eng *sim.Engine, delay sim.Time, out Sink) *Pipe {
	if delay < 0 {
		panic("netem: negative pipe delay")
	}
	if out == nil {
		panic("netem: pipe without sink")
	}
	return &Pipe{delay: delay, lane: sim.NewLane(eng, byRef(out))}
}

// Delay returns the configured one-way latency.
func (pi *Pipe) Delay() sim.Time { return pi.delay }

// Send schedules delivery of p after the pipe's delay.
func (pi *Pipe) Send(p packet.Packet) { pi.lane.After(pi.delay, &p) }
