package netem

import (
	"fmt"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
)

// GilbertElliott is a two-state burst-loss impairment: the classic
// Gilbert–Elliott channel model (Gilbert 1960, Elliott 1963), the
// standard generalization of netem's independent loss to correlated
// loss. The channel alternates between a Good and a Bad state with
// per-packet transition probabilities; each state drops packets with
// its own probability. The paper's testbed has no random loss at all,
// but bursty loss is exactly the regime where the Mathis/Padhye
// independent-loss assumption breaks down (a burst of drops triggers a
// single window halving), so the model is the natural fault-injection
// axis for stress-testing the throughput-model findings.
//
// With LossBad = 1 and LossGood = 0 the model reduces to the simple
// Gilbert channel: mean burst length 1/PBadToGood, stationary loss
// rate PGoodToBad/(PGoodToBad+PBadToGood).
type GilbertElliott struct {
	eng *sim.Engine
	rng *sim.RNG
	out RefSink

	cfg GilbertElliottConfig
	bad bool // current state

	passed   uint64
	dropped  uint64
	goodPkts uint64
	badPkts  uint64
	bursts   uint64 // Good→Bad transitions
}

// GilbertElliottConfig describes the channel.
type GilbertElliottConfig struct {
	// PGoodToBad is the per-packet probability of entering the Bad
	// state from Good, in [0, 1].
	PGoodToBad float64
	// PBadToGood is the per-packet probability of returning to Good
	// from Bad, in (0, 1] when PGoodToBad > 0. Its reciprocal is the
	// mean burst length in packets.
	PBadToGood float64
	// LossGood is the drop probability while Good (usually 0), in [0, 1).
	LossGood float64
	// LossBad is the drop probability while Bad (usually 1), in [0, 1].
	LossBad float64
	// StartBad starts the channel in the Bad state (default Good).
	StartBad bool
	// OnDrop observes drops; may be nil.
	OnDrop DropFunc
}

// StationaryBad returns the stationary probability of the Bad state,
// PGoodToBad/(PGoodToBad+PBadToGood).
func (c GilbertElliottConfig) StationaryBad() float64 {
	den := c.PGoodToBad + c.PBadToGood
	if den <= 0 {
		return 0
	}
	return c.PGoodToBad / den
}

// StationaryLoss returns the long-run drop probability of the channel:
// the state-occupancy-weighted mix of the two loss probabilities.
func (c GilbertElliottConfig) StationaryLoss() float64 {
	pb := c.StationaryBad()
	return (1-pb)*c.LossGood + pb*c.LossBad
}

// SimpleGilbert builds the two-parameter special case from the target
// stationary loss rate and mean burst length (in packets): LossBad = 1,
// LossGood = 0, PBadToGood = 1/meanBurstLen, and PGoodToBad solved so
// that the stationary loss equals meanLoss. meanBurstLen = 1 recovers
// independent Bernoulli loss.
func SimpleGilbert(meanLoss, meanBurstLen float64) GilbertElliottConfig {
	if meanLoss < 0 || meanLoss >= 1 {
		panic("netem: Gilbert mean loss outside [0, 1)")
	}
	if meanBurstLen < 1 {
		panic("netem: Gilbert mean burst length below 1 packet")
	}
	r := 1 / meanBurstLen
	// stationary loss = p/(p+r) = meanLoss  ⇒  p = r·meanLoss/(1−meanLoss)
	return GilbertElliottConfig{
		PGoodToBad: r * meanLoss / (1 - meanLoss),
		PBadToGood: r,
		LossBad:    1,
	}
}

// BurstLossSpec configures a Gilbert–Elliott stage in the two-parameter
// simple-Gilbert form: a target long-run loss rate delivered in bursts
// of a given mean length. MeanBurstLen = 1 degenerates to independent
// Bernoulli loss. It is plain data, so it serializes into link specs and
// failure records.
type BurstLossSpec struct {
	// MeanLoss is the stationary drop probability in [0, 1).
	MeanLoss float64 `json:"meanLoss"`
	// MeanBurstLen is the mean number of consecutive drops per loss
	// episode, ≥ 1.
	MeanBurstLen float64 `json:"meanBurstLen"`
}

// Validate rejects parameters SimpleGilbert would panic on.
func (s *BurstLossSpec) Validate() error {
	if s.MeanLoss < 0 || s.MeanLoss >= 1 {
		return fmt.Errorf("burst mean loss %v outside [0, 1)", s.MeanLoss)
	}
	if s.MeanBurstLen < 1 {
		return fmt.Errorf("burst mean length %v below 1 packet", s.MeanBurstLen)
	}
	return nil
}

// NewGilbertElliott creates the element delivering into out using the
// given deterministic randomness source.
func NewGilbertElliott(eng *sim.Engine, rng *sim.RNG, cfg GilbertElliottConfig, out RefSink) *GilbertElliott {
	if out == nil {
		panic("netem: Gilbert–Elliott without sink")
	}
	if rng == nil {
		panic("netem: Gilbert–Elliott without RNG")
	}
	if cfg.PGoodToBad < 0 || cfg.PGoodToBad > 1 {
		panic(fmt.Sprintf("netem: PGoodToBad %v outside [0, 1]", cfg.PGoodToBad))
	}
	if cfg.PBadToGood < 0 || cfg.PBadToGood > 1 {
		panic(fmt.Sprintf("netem: PBadToGood %v outside [0, 1]", cfg.PBadToGood))
	}
	if cfg.PGoodToBad > 0 && cfg.PBadToGood == 0 {
		panic("netem: Bad state is absorbing (PBadToGood = 0)")
	}
	if cfg.LossGood < 0 || cfg.LossGood >= 1 {
		panic(fmt.Sprintf("netem: LossGood %v outside [0, 1)", cfg.LossGood))
	}
	if cfg.LossBad < 0 || cfg.LossBad > 1 {
		panic(fmt.Sprintf("netem: LossBad %v outside [0, 1]", cfg.LossBad))
	}
	return &GilbertElliott{
		eng: eng,
		rng: rng,
		out: out,
		cfg: cfg,
		bad: cfg.StartBad,
	}
}

// Send applies the channel to one packet: drop per the current state's
// loss probability, then advance the state machine.
func (g *GilbertElliott) Send(p *packet.Packet) {
	var lossP float64
	if g.bad {
		g.badPkts++
		lossP = g.cfg.LossBad
	} else {
		g.goodPkts++
		lossP = g.cfg.LossGood
	}
	drop := lossP > 0 && (lossP >= 1 || g.rng.Float64() < lossP)

	// State transition after the loss decision, so a burst's first
	// packet is decided by the state it arrived in.
	if g.bad {
		if g.cfg.PBadToGood > 0 && g.rng.Float64() < g.cfg.PBadToGood {
			g.bad = false
		}
	} else if g.cfg.PGoodToBad > 0 && g.rng.Float64() < g.cfg.PGoodToBad {
		g.bad = true
		g.bursts++
	}

	if drop {
		g.dropped++
		if g.cfg.OnDrop != nil {
			g.cfg.OnDrop(g.eng.Now(), *p)
		}
		return
	}
	g.passed++
	g.out(p)
}

// Passed returns the number of packets forwarded.
func (g *GilbertElliott) Passed() uint64 { return g.passed }

// Dropped returns the number of packets dropped by the channel.
func (g *GilbertElliott) Dropped() uint64 { return g.dropped }

// GoodPackets returns the number of packets that met the Good state.
func (g *GilbertElliott) GoodPackets() uint64 { return g.goodPkts }

// BadPackets returns the number of packets that met the Bad state.
func (g *GilbertElliott) BadPackets() uint64 { return g.badPkts }

// Bursts returns the number of Good→Bad transitions observed.
func (g *GilbertElliott) Bursts() uint64 { return g.bursts }
