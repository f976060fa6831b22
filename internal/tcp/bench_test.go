package tcp

import (
	"fmt"
	"testing"

	"ccatscale/internal/cca"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// The loss path's two per-packet costs, in the shapes the benchmark
// ladder measures them (bench/layers.go: tcp.ns_per_seg_ooo64/512 and
// tcp.ns_per_ack_sack), so a change to them can be timed and profiled
// with `go test -bench` from inside the package.

// BenchmarkReceiverOOO is Receiver.OnData for a segment arriving while
// `ranges` out-of-order ranges stand above the cumulative point: the
// range is re-inserted and a duplicate ACK goes out with SACK blocks
// chosen from all of them. The cost should grow no faster than the
// number of ranges.
func BenchmarkReceiverOOO(b *testing.B) {
	for _, ranges := range []int{64, 512} {
		b.Run(fmt.Sprintf("ranges=%d", ranges), func(b *testing.B) {
			r := NewReceiver(sim.NewEngine(), 0, DefaultReceiverConfig(), func(packet.Packet) {})
			for k := 0; k < ranges; k++ {
				r.OnData(seg(int64(4*k + 1)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			next := 0
			for i := 0; i < b.N; i++ {
				r.OnData(seg(int64(4*next + 1)))
				next = (next + 7) % ranges
			}
		})
	}
}

// heldWindow is a controller that holds its window still and manages
// recovery itself, so the episode below measures the scoreboard and not
// a window's dynamics or PRR.
type heldWindow struct{ cwnd units.ByteCount }

func (heldWindow) Name() string                              { return "held" }
func (heldWindow) OnAck(cca.AckEvent)                        {}
func (heldWindow) OnEnterRecovery(sim.Time, units.ByteCount) {}
func (heldWindow) OnExitRecovery(sim.Time)                   {}
func (heldWindow) OnRTO(sim.Time)                            {}
func (heldWindow) OnECNMark(sim.Time, units.ByteCount)       {}
func (w heldWindow) Cwnd() units.ByteCount                   { return w.cwnd }
func (heldWindow) PacingRate() units.Bandwidth               { return 0 }
func (heldWindow) ControlsRecovery()                         {}

// BenchmarkSenderSackEpisode is Sender.OnAck through one loss episode
// over a 512-hole scoreboard, 1024 ACKs an op (the ns/ack metric divides
// them out): every even segment of the first 1024 is lost; 512 duplicate
// ACKs each SACK the newest odd segment and repeat the two before it,
// which marks the holes lost and retransmits them; then the 512
// retransmissions land one by one, each ACK moving the cumulative point
// past one hole and still carrying three blocks.
func BenchmarkSenderSackEpisode(b *testing.B) {
	const holes = 512
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := sim.NewEngine()
		// The latest transmission of each segment; the episode echoes
		// only the first 2×holes, and new data goes out beyond them as
		// SACKs free the window.
		sent := make([]packet.Packet, 2*holes)
		snd := NewSender(eng, 0, Config{
			CCA: heldWindow{cwnd: units.ByteCount(2*holes+64) * units.MSS},
			Output: func(p packet.Packet) {
				if seg := p.Seq / mss; seg < int64(len(sent)) {
					sent[seg] = p
				}
			},
		})
		snd.Start(sim.Millisecond)
		eng.Run(2 * sim.Millisecond)
		// ack is what a receiver sends on the arrival of segment echo.
		ack := func(cum, echo int64, sacked ...int64) packet.Packet {
			e := sent[echo]
			p := packet.Packet{
				Ack: true, CumAck: cum * mss,
				AckedSentAt: e.SentAt, AckedRetrans: e.Retrans,
				Delivered: e.Delivered, DeliveredAt: e.DeliveredAt,
				FirstSentAt: e.FirstSentAt, RateSentAt: e.SentAt, AppLimited: e.AppLimited,
			}
			for _, s := range sacked {
				if s >= 1 && s < 2*holes {
					p.Sack[p.NumSack] = packet.SackBlock{Start: s * mss, End: (s + 1) * mss}
					p.NumSack++
				}
			}
			return p
		}
		b.StartTimer()
		for k := int64(0); k < holes; k++ {
			eng.Run(eng.Now() + 10*sim.Microsecond)
			s := 2*k + 1
			snd.OnAck(ack(0, s, s, s-2, s-4))
		}
		for k := int64(0); k < holes; k++ {
			eng.Run(eng.Now() + 10*sim.Microsecond)
			snd.OnAck(ack(2*k+2, 2*k, 2*k+3, 2*k+5, 2*k+7))
		}
		if st := snd.Stats(); st.Retransmissions != holes {
			b.Fatalf("episode retransmitted %d segments, want %d", st.Retransmissions, holes)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*holes), "ns/ack")
}
