package swdnn

import (
	"flag"
	"fmt"
	"testing"

	"swcaffe/internal/detrand"
	"swcaffe/internal/sw26010"
)

var gemmSeed = flag.Uint64("gemm-seed", 20261017, "seed of the shapes TestGEMMPlanMatchesSimulatedTime and TestGEMMSimulatedTrafficAccounting generate")

// crossShapes returns the GEMM shapes the cross-validation tests run:
// gemmShapes of -gemm-seed. Replay a failure with the seed it names.
func crossShapes() [][3]int { return gemmShapes(*gemmSeed) }

// gemmShapes returns aligned shapes, the ragged GEMMs the node_mesh
// workload runs (its 60×52×44 GEMM and its convolution's 8×72×256),
// ragged shapes of the models' layers, and 16 shapes drawn from seed.
func gemmShapes(seed uint64) [][3]int {
	shapes := [][3]int{
		{64, 64, 64}, {128, 64, 128}, {256, 128, 64},
		{60, 52, 44}, {8, 72, 256},
		{96, 363, 64}, {128, 1152, 196}, {64, 576, 196}, {64, 27, 784}, {100, 30, 70},
	}
	rng := detrand.New(seed)
	for range 16 {
		shapes = append(shapes, [3]int{32 + rng.Intn(225), 8 + rng.Intn(633), 16 + rng.Intn(385)})
	}
	return shapes
}

// The planner and the functional simulator share the hardware model
// and the tiling but take independent code paths (closed-form sums vs
// per-CPE event clocks). Cross-validate them: the plan's estimate must
// land within a narrow band of the simulated time.
func TestGEMMPlanMatchesSimulatedTime(t *testing.T) {
	hw := sw26010.Default()
	cg := sw26010.NewCoreGroup(hw)
	defer cg.Close()
	for _, s := range crossShapes() {
		m, k, n := s[0], s[1], s[2]
		simT := GEMMRun(cg, make([]float32, m*k), make([]float32, k*n), make([]float32, m*n), m, k, n)
		plan := GEMMPlan(hw, m, k, n)
		// The planner overlaps DMA, compute and register traffic in
		// closed form where the simulator serializes some of them per
		// CPE; the two stay within this band.
		if ratio := simT / plan.Time; ratio < 0.75 || ratio > 1.75 {
			t.Errorf("GEMM %d×%d×%d (-gemm-seed %d), block %v: simulated %.4g vs plan %.4g (ratio %.2f)",
				m, k, n, *gemmSeed, plan.Block, simT, plan.Time, ratio)
		}
	}
}

// The simulator's accumulated traffic must equal the plan's: the run
// executes the plan's tiling, so it moves exactly the bytes the plan
// prices.
func TestGEMMSimulatedTrafficAccounting(t *testing.T) {
	hw := sw26010.Default()
	cg := sw26010.NewCoreGroup(hw)
	defer cg.Close()
	for _, s := range crossShapes() {
		m, k, n := s[0], s[1], s[2]
		plan := GEMMPlan(hw, m, k, n)
		cg.ResetStats()
		GEMMRun(cg, make([]float32, m*k), make([]float32, k*n), make([]float32, m*n), m, k, n)
		st := cg.Stats()
		name := fmt.Sprintf("GEMM %d×%d×%d (-gemm-seed %d), block %v", m, k, n, *gemmSeed, plan.Block)
		if got := st.DMAGetBytes + st.DMAPutBytes; got != plan.DMABytes {
			t.Errorf("%s: simulated DMA bytes %d (get %d, put %d), plan %d", name, got, st.DMAGetBytes, st.DMAPutBytes, plan.DMABytes)
		}
		// Register traffic: each SUMMA step of each macro-block
		// broadcasts one A tile along every mesh row and one B tile
		// along every mesh column, in double precision on the bus.
		bm, bk, bn := plan.Block[0], plan.Block[1], plan.Block[2]
		steps := (m + bm - 1) / bm * ((k + bk - 1) / bk) * ((n + bn - 1) / bn) * mesh
		tileBytes := float64(bm/mesh*bk/mesh+bk/mesh*bn/mesh) * 4 * hw.SinglePrecisionRLCPenalty
		if want := int64(steps*mesh) * int64(tileBytes); st.RLCBytes != want {
			t.Errorf("%s: simulated RLC bytes %d, want %d", name, st.RLCBytes, want)
		}
		if st.Flops <= plan.Flops {
			t.Errorf("%s: simulated flops %g, want more than the plan's padded 2·m·k·n %g", name, st.Flops, plan.Flops)
		}
	}
}

// Im2colRun's simulated time should track the Im2colPlan estimate for
// the single-image shape it executes.
func TestIm2colPlanMatchesSimulatedTime(t *testing.T) {
	hw := sw26010.Default()
	cg := sw26010.NewCoreGroup(hw)
	s := ConvShape{B: 1, Ni: 16, Ri: 24, Ci: 24, No: 1, K: 3, S: 1, P: 1}
	src := make([]float32, s.Ni*s.Ri*s.Ci)
	ro, co := s.OutDims()
	dst := make([]float32, s.Ni*s.K*s.K*ro*co)
	simT := Im2colRun(cg, src, s, dst)
	plan := Im2colPlan(hw, s)
	ratio := simT / plan.Time
	if ratio < 0.3 || ratio > 8 {
		t.Errorf("im2col: simulated %.4g vs plan %.4g (ratio %.2f)", simT, plan.Time, ratio)
	}
}
