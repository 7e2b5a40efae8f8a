// vgg16-layers: explore the mixed convolution strategy of swCaffe on
// the VGG-16 workload (the paper's Table II): for every convolution
// layer, compare the explicit im2col+GEMM plan against the implicit
// swDNN plan and show which one the first-two-iterations autotuner
// keeps — then verify the explicit path numerically on the functional
// CPE-mesh simulator at a reduced shape.
package main

import (
	"fmt"
	"math"
	"swcaffe/internal/detrand"
	"swcaffe/internal/sw26010"
	"swcaffe/internal/swdnn"
)

func main() {
	hw := sw26010.Default()

	fmt.Println("VGG-16 convolution plan selection (batch 128, one core group):")
	fmt.Printf("%-6s %-10s %-10s %-10s %s\n", "layer", "implicit", "explicit", "chosen", "GFlops")
	shapes := []struct {
		name      string
		ni, no, c int
	}{
		{"1_1", 3, 64, 224}, {"1_2", 64, 64, 224},
		{"2_1", 64, 128, 112}, {"2_2", 128, 128, 112},
		{"3_1", 128, 256, 56}, {"3_2", 256, 256, 56}, {"3_3", 256, 256, 56},
		{"4_1", 256, 512, 28}, {"4_2", 512, 512, 28}, {"4_3", 512, 512, 28},
		{"5_1", 512, 512, 14}, {"5_2", 512, 512, 14}, {"5_3", 512, 512, 14},
	}
	for _, l := range shapes {
		s := swdnn.ConvShape{B: 128, Ni: l.ni, Ri: l.c, Ci: l.c, No: l.no, K: 3, S: 1, P: 1}
		impl, expl, best := swdnn.ConvPlans(hw, s, swdnn.Forward)
		t := func(p swdnn.Plan) string {
			if !p.Feasible {
				return "-"
			}
			return fmt.Sprintf("%.2fs", p.Time)
		}
		fmt.Printf("%-6s %-10s %-10s %-10s %.1f\n", l.name, t(impl), t(expl), best.Name, best.Gflops())
	}

	// Functional verification: run the explicit conv pipeline (im2col
	// on the CPE mesh + register-communication GEMM) for a small shape
	// and diff against the direct reference convolution.
	fmt.Println("\nfunctional check of the explicit pipeline on the CPE mesh:")
	s := swdnn.ConvShape{B: 1, Ni: 8, Ri: 12, Ci: 12, No: 16, K: 3, S: 1, P: 1}
	rng := detrand.New(1)
	src := make([]float32, s.Ni*s.Ri*s.Ci)
	w := make([]float32, s.No*s.Ni*s.K*s.K)
	bias := make([]float32, s.No)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	ro, co := s.OutDims()
	got := make([]float32, s.No*ro*co)
	want := make([]float32, s.No*ro*co)

	cg := sw26010.NewCoreGroup(hw)
	simTime := swdnn.ConvExplicitRun(cg, src, w, bias, s, got)
	swdnn.RefConvForward(src, w, bias, s, want)

	var maxDiff float64
	for i := range got {
		if d := math.Abs(float64(got[i] - want[i])); d > maxDiff {
			maxDiff = d
		}
	}
	st := cg.Stats()
	fmt.Printf("  shape %v: max |sim - ref| = %.2g, simulated time %.3gus\n", s, maxDiff, simTime*1e6)
	fmt.Printf("  simulator moved %.1f KB over DMA and %.1f KB over register buses\n",
		float64(st.DMAGetBytes+st.DMAPutBytes)/1e3, float64(st.RLCBytes)/1e3)
}
