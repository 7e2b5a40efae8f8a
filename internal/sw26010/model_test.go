package sw26010

import (
	"testing"
	"testing/quick"
)

func TestDMABandwidthShape(t *testing.T) {
	m := Default()

	// Bandwidth never exceeds the saturated peak and is positive.
	for _, size := range []int64{64, 512, 2048, 32768} {
		for _, n := range []int{1, 8, 64} {
			bw := m.DMABandwidth(DMAGet, size, n, size)
			if bw <= 0 || bw > m.DMAPeak {
				t.Fatalf("bw(%d,%d) = %g out of (0, %g]", size, n, bw, m.DMAPeak)
			}
		}
	}

	// Monotone in transfer size (latency hiding, Principle 3).
	prev := 0.0
	for _, size := range []int64{128, 256, 512, 1024, 2048, 4096, 8192} {
		bw := m.DMABandwidth(DMAGet, size, 64, size)
		if bw <= prev {
			t.Fatalf("bandwidth not increasing with size at %d", size)
		}
		prev = bw
	}

	// Monotone in CPE count (more engines until the controller saturates).
	prev = 0.0
	for _, n := range []int{1, 8, 16, 32, 64} {
		bw := m.DMABandwidth(DMAGet, 32768, n, 32768)
		if bw < prev {
			t.Fatalf("bandwidth decreasing with CPE count at %d", n)
		}
		prev = bw
	}

	// 64 CPEs with >= 2 KB transfers approach the 28 GB/s asymptote
	// (the paper's saturation observation).
	if bw := m.DMABandwidth(DMAGet, 32<<10, 64, 32<<10); bw < 0.85*m.DMAPeak {
		t.Fatalf("large transfers should saturate: got %g of %g", bw, m.DMAPeak)
	}
	// One CPE alone cannot saturate the controller.
	if bw := m.DMABandwidth(DMAGet, 32<<10, 1, 32<<10); bw > 0.25*m.DMAPeak {
		t.Fatalf("single CPE too fast: %g", bw)
	}
}

func TestStridedBandwidthCollapses(t *testing.T) {
	m := Default()
	// Principle 3: strided blocks below 256 B waste the channel.
	small := m.DMABandwidth(DMAGet, 32<<10, 64, 8)
	big := m.DMABandwidth(DMAGet, 32<<10, 64, 4096)
	if small > 0.25*big {
		t.Fatalf("8-byte strided blocks should collapse bandwidth: %g vs %g", small, big)
	}
	// Monotone in block size.
	prev := 0.0
	for _, blk := range []int64{4, 16, 64, 256, 1024, 4096} {
		bw := m.DMABandwidth(DMAGet, 32<<10, 64, blk)
		if bw <= prev {
			t.Fatalf("strided bandwidth not increasing at block %d", blk)
		}
		prev = bw
	}
}

func TestDMABandwidthProperty(t *testing.T) {
	m := Default()
	f := func(sz uint16, ncpe uint8, blk uint16) bool {
		size := int64(sz)%65536 + 1
		n := int(ncpe)%64 + 1
		block := int64(blk)%4096 + 1
		if block > size {
			block = size
		}
		bw := m.DMABandwidth(DMAGet, size, n, block)
		return bw > 0 && bw <= m.DMAPeak
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFlopByteRatio(t *testing.T) {
	m := Default()
	// Paper: 742.4 GFlops / 28 GB/s = 26.5.
	if r := m.FlopByteRatio(); r < 26 || r > 27 {
		t.Fatalf("flop:byte ratio %g, want ~26.5", r)
	}
}

func TestPeakRates(t *testing.T) {
	if CGPeakFlops < 742e9 || CGPeakFlops > 743e9 {
		t.Fatalf("CG peak %g, want 742.4 GFlops", CGPeakFlops)
	}
	// ~2.97 TFlops; the paper rounds to 3.02.
	if chip := CGPeakFlops * CoreGroups; chip < 2.9e12 || chip > 3.1e12 {
		t.Fatalf("chip peak %g, want ~3 TFlops", chip)
	}
}

func TestMPECopySlow(t *testing.T) {
	m := Default()
	// Principle 2: memory-to-memory via the MPE (9.9 GB/s) must be
	// slower than a DMA-staged copy through the LDMs.
	bytes := int64(64 << 20)
	mpe := m.MPECopyTime(bytes)
	dma := 2 * float64(bytes) / m.DMABandwidth(DMAGet, 32<<10, 64, 32<<10)
	if mpe < dma {
		t.Fatalf("MPE copy (%g) should be slower than staged DMA (%g)", mpe, dma)
	}
}

func TestRLCTime(t *testing.T) {
	m := Default()
	if m.RLCTime(0) != 0 {
		t.Fatal("zero bytes should cost nothing")
	}
	t32 := m.RLCTime(32)
	t320 := m.RLCTime(320)
	if t32 <= 0 || t320 <= t32 {
		t.Fatalf("RLC times not increasing: %g, %g", t32, t320)
	}
	// Pipelined streaming: ten granules cost far less than 10x one
	// granule's latency-inclusive time.
	if t320 > 5*t32 {
		t.Fatalf("RLC not pipelined: %g vs %g", t320, t32)
	}
	// Aggregate broadcast bandwidth lands in the measured multi-TB/s
	// regime (paper ref [7]: 4461 GB/s).
	perCPE := float64(1<<20) / m.RLCTime(1<<20)
	agg := perCPE * CPEsPerCG
	if agg < 2e12 || agg > 6e12 {
		t.Fatalf("aggregate RLC bandwidth %g outside the measured regime", agg)
	}
}

func TestDMATimeComponents(t *testing.T) {
	m := Default()
	if m.DMATime(DMAGet, 0, 64, 0) != 0 {
		t.Fatal("zero transfer should cost nothing")
	}
	small := m.DMATime(DMAGet, 128, 64, 128)
	if small < m.DMALatency {
		t.Fatal("transfer cannot beat the descriptor latency")
	}
	// Doubling the size less than doubles the time for tiny transfers
	// (latency-dominated), but nearly doubles it for huge ones.
	hugeT1 := m.DMATime(DMAGet, 1<<20, 64, 1<<20)
	hugeT2 := m.DMATime(DMAGet, 2<<20, 64, 2<<20)
	if hugeT2 < 1.8*hugeT1 {
		t.Fatalf("large transfers should scale ~linearly: %g -> %g", hugeT1, hugeT2)
	}
}
