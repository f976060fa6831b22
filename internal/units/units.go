// Package units provides the quantity vocabulary shared by the network
// substrate and experiment harness: bandwidths, byte counts, and the
// bandwidth-delay-product arithmetic used to size router buffers the way
// the paper does (≈1 BDP at a 200 ms worst-case RTT).
package units

import (
	"fmt"
	"math"
	"math/bits"

	"ccatscale/internal/sim"
)

// Bandwidth is a link or pacing rate in bits per second.
type Bandwidth int64

// Common rates. The paper's settings are 100 Mbps (EdgeScale bottleneck),
// 10 Gbps (CoreScale bottleneck) and 25 Gbps (edge links, never the
// bottleneck).
const (
	BitPerSec  Bandwidth = 1
	KbitPerSec           = 1000 * BitPerSec
	MbitPerSec           = 1000 * KbitPerSec
	GbitPerSec           = 1000 * MbitPerSec
)

// ByteCount is a number of bytes (queue occupancy, window sizes, buffer
// capacities).
type ByteCount int64

// Common sizes, decimal as in the paper's "3MB buffer" / "375MB buffer".
const (
	Byte ByteCount = 1
	KB             = 1000 * Byte
	MB             = 1000 * KB
	GB             = 1000 * MB
)

// MSS is the maximum segment size used throughout the paper and this
// reproduction: 1448 payload bytes (1500 MTU minus IP/TCP headers with
// timestamps).
const MSS ByteCount = 1448

// String renders the bandwidth with an adaptive unit, e.g. "10Gbps".
func (b Bandwidth) String() string {
	switch {
	case b >= GbitPerSec && b%GbitPerSec == 0:
		return fmt.Sprintf("%dGbps", b/GbitPerSec)
	case b >= MbitPerSec && b%MbitPerSec == 0:
		return fmt.Sprintf("%dMbps", b/MbitPerSec)
	case b >= KbitPerSec && b%KbitPerSec == 0:
		return fmt.Sprintf("%dKbps", b/KbitPerSec)
	default:
		return fmt.Sprintf("%dbps", int64(b))
	}
}

// String renders the byte count with an adaptive decimal unit.
func (c ByteCount) String() string {
	switch {
	case c >= GB && c%GB == 0:
		return fmt.Sprintf("%dGB", c/GB)
	case c >= MB && c%MB == 0:
		return fmt.Sprintf("%dMB", c/MB)
	case c >= KB && c%KB == 0:
		return fmt.Sprintf("%dKB", c/KB)
	default:
		return fmt.Sprintf("%dB", int64(c))
	}
}

// BytesPerSec returns the rate in bytes per second.
func (b Bandwidth) BytesPerSec() float64 { return float64(b) / 8 }

// TransmissionTime returns the serialization delay of n bytes at rate b,
// rounded up to the next nanosecond so back-to-back transmissions can
// never exceed the configured rate.
func (b Bandwidth) TransmissionTime(n ByteCount) sim.Time {
	if b <= 0 {
		panic("units: transmission time at non-positive bandwidth")
	}
	if n <= 0 {
		return 0
	}
	bits := int64(n) * 8
	// ceil(bits * 1e9 / b) without overflow for realistic inputs:
	// bits ≤ ~2^33 for a 1 GB burst, 1e9 multiplier pushes to 2^63 only
	// past ~9 GB, far above any single-packet or batch use here.
	return sim.Time((bits*int64(sim.Second) + int64(b) - 1) / int64(b))
}

// BytesIn returns the number of whole bytes transmitted at rate b during
// duration d. The product b·d overflows int64 at CoreScale rates (10 Gbps
// over one second is already 10^19 bit·ns), so the division is done in
// 128 bits.
func (b Bandwidth) BytesIn(d sim.Time) ByteCount {
	if d <= 0 || b <= 0 {
		return 0
	}
	hi, lo := bits.Mul64(uint64(b), uint64(d))
	q, _ := bits.Div64(hi, lo, 8*uint64(sim.Second))
	return ByteCount(q)
}

// BDP returns the bandwidth-delay product for rate b and round-trip time
// rtt, in bytes. This is the paper's buffer-sizing rule of thumb: the
// smallest drop-tail buffer that lets one NewReno flow keep the link
// saturated through a window halving.
func BDP(b Bandwidth, rtt sim.Time) ByteCount {
	if b <= 0 || rtt <= 0 {
		return 0
	}
	return ByteCount(int64(b) / 8 * int64(rtt) / int64(sim.Second))
}

// Throughput returns the average rate at which n bytes were moved during
// d. It is the reporting-side inverse of BytesIn. A multi-terabyte
// transfer over a long window overflows the naive int64 product, so the
// computation is 128-bit; a nonsensical input whose true rate exceeds
// int64 bits/sec saturates.
func Throughput(n ByteCount, d sim.Time) Bandwidth {
	if d <= 0 || n <= 0 {
		return 0
	}
	hi, lo := bits.Mul64(uint64(n), 8*uint64(sim.Second))
	if hi >= uint64(d) {
		return Bandwidth(math.MaxInt64)
	}
	q, _ := bits.Div64(hi, lo, uint64(d))
	if q > math.MaxInt64 {
		return Bandwidth(math.MaxInt64)
	}
	return Bandwidth(q)
}
