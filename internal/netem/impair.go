package netem

import (
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
)

// Impairment models the stochastic features of the Linux netem qdisc
// the paper's testbed tool provides (tc-netem(8)): independent random
// loss and uniform delay jitter. The paper's experiments deliberately
// run with no random loss ("there is no random loss"), but the
// capability is essential for calibration: the Mathis model's constant
// was originally derived under independent-loss assumptions, and the
// calibration tests in this repository verify the fitted C against
// controlled Bernoulli loss through exactly this element.
type Impairment struct {
	eng *sim.Engine
	rng *sim.RNG
	out RefSink

	lossProb float64
	jitter   sim.Time

	onDrop DropFunc

	passed  uint64
	dropped uint64

	// Jittered packets ride pooled bound-method events.
	pool *deliveryPool
}

// ImpairmentConfig describes the element.
type ImpairmentConfig struct {
	// LossProb is the independent per-packet drop probability in
	// [0, 1).
	LossProb float64
	// Jitter adds a uniform random delay in [0, Jitter) per packet.
	// Note that large jitter can reorder packets, exactly as real netem
	// does without a reorder-correction queue.
	Jitter sim.Time
	// OnDrop observes random drops; may be nil.
	OnDrop DropFunc
}

// NewImpairment creates the element delivering into out using the given
// deterministic randomness source.
func NewImpairment(eng *sim.Engine, rng *sim.RNG, cfg ImpairmentConfig, out RefSink) *Impairment {
	if out == nil {
		panic("netem: impairment without sink")
	}
	if rng == nil {
		panic("netem: impairment without RNG")
	}
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		panic("netem: loss probability outside [0, 1)")
	}
	if cfg.Jitter < 0 {
		panic("netem: negative jitter")
	}
	return &Impairment{
		eng:      eng,
		rng:      rng,
		out:      out,
		lossProb: cfg.LossProb,
		jitter:   cfg.Jitter,
		onDrop:   cfg.OnDrop,
		pool:     newDeliveryPool(),
	}
}

// Send applies loss and jitter to one packet; a jittered packet is
// copied into a pooled event until it is due.
func (im *Impairment) Send(p *packet.Packet) {
	if im.lossProb > 0 && im.rng.Float64() < im.lossProb {
		im.dropped++
		if im.onDrop != nil {
			im.onDrop(im.eng.Now(), *p)
		}
		return
	}
	im.passed++
	if im.jitter > 0 {
		im.eng.After(im.rng.Dur(im.jitter), im.pool.get(im.out, p).fn)
		return
	}
	im.out(p)
}

// Passed returns the number of packets forwarded.
func (im *Impairment) Passed() uint64 { return im.passed }

// Dropped returns the number of packets randomly dropped.
func (im *Impairment) Dropped() uint64 { return im.dropped }
