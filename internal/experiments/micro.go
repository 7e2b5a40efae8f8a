package experiments

import (
	"fmt"
	"io"

	"swcaffe/internal/perf"
	"swcaffe/internal/sw26010"
	"swcaffe/internal/topology"
)

// Table1 prints the processor comparison of paper Table I.
func Table1(w io.Writer) []perf.Spec {
	specs := perf.Table1Specs()
	section(w, "Table I: Comparison of SW26010, K40m and KNL")
	tw := newTab(w)
	fmt.Fprintln(tw, "Specifications\tSW26010\tNvidia K40m\tIntel KNL")
	fmt.Fprintf(tw, "Release Year\t%d\t%d\t%d\n", specs[0].ReleaseYear, specs[1].ReleaseYear, specs[2].ReleaseYear)
	fmt.Fprintf(tw, "Bandwidth(GB/s)\t%s\t%s\t%s\n", fixed(specs[0].BandwidthGB, 0), fixed(specs[1].BandwidthGB, 0), fixed(specs[2].BandwidthGB, 0))
	fmt.Fprintf(tw, "float perf. (TFlops)\t%s\t%s\t%s\n", fixed(specs[0].FloatTFlops, 2), fixed(specs[1].FloatTFlops, 2), fixed(specs[2].FloatTFlops, 2))
	fmt.Fprintf(tw, "double perf. (TFlops)\t%s\t%s\t%s\n", fixed(specs[0].DoubleTFlops, 2), fixed(specs[1].DoubleTFlops, 2), fixed(specs[2].DoubleTFlops, 2))
	tw.Flush()
	return specs
}

// DMAPoint is one sample of the Fig. 2 bandwidth surfaces.
type DMAPoint struct {
	Mode      sw26010.DMAMode
	Strided   bool
	SizeOrBlk int64 // per-CPE size (continuous) or block size (strided)
	CPEs      int
	GBps      float64
}

// Figure2 prints the DMA get/put bandwidth curves for continuous and
// strided access (paper Fig. 2) and returns the sampled points.
func Figure2(w io.Writer) []DMAPoint {
	hw := sw26010.Default()
	var out []DMAPoint
	cpes := []int{1, 8, 16, 32, 64}

	for _, mode := range []sw26010.DMAMode{sw26010.DMAGet, sw26010.DMAPut} {
		section(w, fmt.Sprintf("Figure 2: continuous DMA_%s bandwidth (GB/s)", mode))
		tw := newTab(w)
		fmt.Fprint(tw, "size/CPE")
		for _, n := range cpes {
			fmt.Fprintf(tw, "\t%dCPE", n)
		}
		fmt.Fprintln(tw)
		for _, size := range []int64{128, 256, 512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 24 << 10, 32 << 10, 48 << 10} {
			fmt.Fprintf(tw, "%s", fmtBytes(size))
			for _, n := range cpes {
				bw := hw.DMABandwidth(mode, size, n, size)
				out = append(out, DMAPoint{Mode: mode, SizeOrBlk: size, CPEs: n, GBps: bw / 1e9})
				fmt.Fprintf(tw, "\t%s", fmtGBps(bw))
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}

	// Strided: total per-CPE volume fixed at 32 KB, block size varies.
	const total = 32 << 10
	for _, mode := range []sw26010.DMAMode{sw26010.DMAGet, sw26010.DMAPut} {
		section(w, fmt.Sprintf("Figure 2: strided DMA_%s bandwidth, 32KB/CPE (GB/s)", mode))
		tw := newTab(w)
		fmt.Fprint(tw, "block")
		for _, n := range cpes {
			fmt.Fprintf(tw, "\t%dCPE", n)
		}
		fmt.Fprintln(tw)
		for _, blk := range []int64{4, 8, 16, 32, 64, 128, 256, 512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10} {
			fmt.Fprintf(tw, "%s", fmtBytes(blk))
			for _, n := range cpes {
				bw := hw.DMABandwidth(mode, total, n, blk)
				out = append(out, DMAPoint{Mode: mode, Strided: true, SizeOrBlk: blk, CPEs: n, GBps: bw / 1e9})
				fmt.Fprintf(tw, "\t%s", fmtGBps(bw))
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	return out
}

func fmtBytes(b int64) string {
	if b >= 1<<10 && b%(1<<10) == 0 {
		return fmt.Sprintf("%dK", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}

// P2PPoint is one sample of the Fig. 6 network microbenchmark.
type P2PPoint struct {
	Network   string
	Bytes     int64
	OverSub   bool
	GBps      float64
	LatencyMS float64
}

// Figure6 prints the P2P bandwidth/latency comparison between the
// Sunway network and Infiniband FDR (paper Fig. 6).
func Figure6(w io.Writer) []P2PPoint {
	sw := topology.Sunway()
	ib := topology.InfinibandFDR()
	var out []P2PPoint

	section(w, "Figure 6: P2P bandwidth (GB/s), Sunway vs Infiniband FDR")
	tw := newTab(w)
	fmt.Fprintln(tw, "size\tSW uni\tSW over-subscribed\tInfiniband")
	for sz := int64(1); sz <= 4<<20; sz *= 4 {
		swBW := sw.Bandwidth(sz, true)
		swOver := sw.Bandwidth(sz, false)
		ibBW := ib.Bandwidth(sz, true)
		out = append(out,
			P2PPoint{Network: "SW", Bytes: sz, GBps: swBW / 1e9},
			P2PPoint{Network: "SW", Bytes: sz, OverSub: true, GBps: swOver / 1e9},
			P2PPoint{Network: "IB", Bytes: sz, GBps: ibBW / 1e9},
		)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", fmtBytes(sz), fmtGBps(swBW), fmtGBps(swOver), fmtGBps(ibBW))
	}
	tw.Flush()

	section(w, "Figure 6: P2P latency (ms)")
	tw = newTab(w)
	fmt.Fprintln(tw, "size\tSW\tInfiniband")
	for sz := int64(2); sz <= 2<<20; sz *= 4 {
		swT := sw.P2PTime(sz, true) * 1e3
		ibT := ib.P2PTime(sz, true) * 1e3
		out = append(out,
			P2PPoint{Network: "SW", Bytes: sz, LatencyMS: swT},
			P2PPoint{Network: "IB", Bytes: sz, LatencyMS: ibT},
		)
		fmt.Fprintf(tw, "%s\t%s\t%s\n", fmtBytes(sz), fixed(swT, 4), fixed(ibT, 4))
	}
	tw.Flush()
	return out
}
