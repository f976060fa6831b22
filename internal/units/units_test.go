package units

import (
	"testing"
	"testing/quick"

	"ccatscale/internal/sim"
)

func TestBandwidthString(t *testing.T) {
	cases := []struct {
		b    Bandwidth
		want string
	}{
		{10 * GbitPerSec, "10Gbps"},
		{100 * MbitPerSec, "100Mbps"},
		{25 * GbitPerSec, "25Gbps"},
		{512 * KbitPerSec, "512Kbps"},
		{999, "999bps"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.b), got, c.want)
		}
	}
}

func TestByteCountString(t *testing.T) {
	cases := []struct {
		c    ByteCount
		want string
	}{
		{375 * MB, "375MB"},
		{3 * MB, "3MB"},
		{2 * GB, "2GB"},
		{64 * KB, "64KB"},
		{1448, "1448B"},
	}
	for _, c := range cases {
		if got := c.c.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestTransmissionTimeKnownValues(t *testing.T) {
	// 1448 bytes at 100 Mbps = 1448*8/1e8 s = 115.84 µs.
	got := (100 * MbitPerSec).TransmissionTime(MSS)
	want := sim.Time(115840)
	if got != want {
		t.Fatalf("TransmissionTime = %v, want %v", got, want)
	}
	// 1500 bytes at 10 Gbps = 1.2 µs.
	if got := (10 * GbitPerSec).TransmissionTime(1500); got != 1200 {
		t.Fatalf("TransmissionTime = %v, want 1200ns", got)
	}
	if got := (10 * GbitPerSec).TransmissionTime(0); got != 0 {
		t.Fatalf("TransmissionTime(0) = %v, want 0", got)
	}
}

func TestTransmissionTimeRoundsUp(t *testing.T) {
	// 1 byte at 3 bps: 8/3 s = 2.666...s must round up.
	got := Bandwidth(3).TransmissionTime(1)
	want := sim.Time((8*int64(sim.Second) + 2) / 3)
	if got != want {
		t.Fatalf("TransmissionTime = %v, want %v", got, want)
	}
}

func TestTransmissionTimePanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero bandwidth")
		}
	}()
	Bandwidth(0).TransmissionTime(1)
}

func TestBDPPaperSettings(t *testing.T) {
	// The paper: EdgeScale buffer 3 MB ≈ 1 BDP of 100 Mbps × 200 ms = 2.5 MB;
	// CoreScale buffer 375 MB ≈ 1.2 BDP of 10 Gbps × 200 ms = 250 MB.
	if got := BDP(100*MbitPerSec, 200*sim.Millisecond); got != 2500000 {
		t.Fatalf("edge BDP = %v, want 2.5MB", got)
	}
	if got := BDP(10*GbitPerSec, 200*sim.Millisecond); got != 250000000 {
		t.Fatalf("core BDP = %v, want 250MB", got)
	}
	if got := BDP(0, sim.Second); got != 0 {
		t.Fatalf("BDP with zero bandwidth = %v, want 0", got)
	}
}

func TestThroughputInvertsBytesIn(t *testing.T) {
	f := func(rateMbps uint16, secs uint8) bool {
		rate := Bandwidth(int64(rateMbps%2000)+1) * MbitPerSec
		d := sim.Time(int64(secs%30)+1) * sim.Second
		n := rate.BytesIn(d)
		back := Throughput(n, d)
		// Round-trip error bounded by one byte's worth of rate.
		diff := int64(rate) - int64(back)
		if diff < 0 {
			diff = -diff
		}
		return diff <= 8*int64(sim.Second)/int64(d)*int64(sim.Second)/int64(sim.Second)+8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesInKnownValue(t *testing.T) {
	// 10 Gbps for 1 s = 1.25 GB.
	if got := (10 * GbitPerSec).BytesIn(sim.Second); got != ByteCount(1250000000) {
		t.Fatalf("BytesIn = %v", got)
	}
	if got := (10 * GbitPerSec).BytesIn(0); got != 0 {
		t.Fatalf("BytesIn(0) = %v, want 0", got)
	}
}

func TestRateIsRespectedOverManyPackets(t *testing.T) {
	// Transmitting k packets back-to-back must take at least the fluid
	// k*size*8/rate time (rounding up per packet can only make it longer).
	rate := 10 * GbitPerSec
	var total sim.Time
	const k = 10000
	for i := 0; i < k; i++ {
		total += rate.TransmissionTime(1500)
	}
	fluid := sim.Time(int64(k) * 1500 * 8 * int64(sim.Second) / int64(rate))
	if total < fluid {
		t.Fatalf("total serialization %v beats fluid bound %v: rate exceeded", total, fluid)
	}
	if total > fluid+k { // ≤1 ns rounding per packet
		t.Fatalf("rounding drift too large: total %v vs fluid %v", total, fluid)
	}
}

func TestBytesPerSec(t *testing.T) {
	if got := (8 * MbitPerSec).BytesPerSec(); got != 1e6 {
		t.Fatalf("BytesPerSec = %v, want 1e6", got)
	}
}
