// Package swdnn implements the redesigned DNN kernels of swCaffe for
// the SW26010 core group (paper Sec. IV and its reference [4], swDNN).
//
// Every kernel exists in two coupled forms:
//
//   - a *functional* implementation that runs on the sw26010
//     simulator (real float32 math on CPE goroutines with LDM, DMA and
//     register-level communication), used by the test suite to
//     validate numerics and cross-check timing on small shapes; and
//   - an *analytic* Plan that walks the same blocking decisions and
//     prices them with the hardware model, used to time full-scale
//     layers (a VGG-16 batch-128 convolution executes ~10^11 flops —
//     far too much to simulate functionally on the host).
//
// Plans are the unit the mixed-strategy convolution selector compares
// (paper Sec. IV-B: run both plans for the first two iterations, keep
// the winner).
package swdnn

import "fmt"

// Plan is the costed execution schedule of one kernel invocation on a
// single core group.
type Plan struct {
	Name string
	// Feasible is false when the kernel cannot run for this shape
	// (e.g. the implicit-GEMM convolution with channels < 64).
	Feasible bool
	Reason   string // why infeasible, when Feasible is false

	Time        float64 // end-to-end seconds on one CG
	DMATime     float64
	ComputeTime float64
	RLCTime     float64

	Flops    float64
	DMABytes int64
	RLCBytes int64

	// Block records the chosen tiling, for introspection and tests.
	Block [3]int
}

// Gflops returns the achieved computational rate of the plan.
func (p Plan) Gflops() float64 {
	if !p.Feasible || p.Time <= 0 {
		return 0
	}
	return p.Flops / p.Time / 1e9
}

func (p Plan) String() string {
	if !p.Feasible {
		return fmt.Sprintf("Plan{%s: infeasible: %s}", p.Name, p.Reason)
	}
	return fmt.Sprintf("Plan{%s: %.4gs, %.1f GFlops, dma %.4gs, compute %.4gs}",
		p.Name, p.Time, p.Gflops(), p.DMATime, p.ComputeTime)
}

// Infeasible builds an infeasible plan with an explanatory reason.
func Infeasible(name, reason string) Plan {
	return Plan{Name: name, Feasible: false, Reason: reason}
}

// Best returns the fastest feasible plan (the earliest argument on a
// tie), or an infeasible plan when none is feasible. This mirrors
// swCaffe's first-two-iterations autotuning (Sec. VI-A).
func Best(plans ...Plan) Plan {
	best := -1
	for i := range plans {
		if plans[i].Feasible && (best < 0 || plans[i].Time < plans[best].Time) {
			best = i
		}
	}
	if best >= 0 {
		return plans[best]
	}
	reasons := ""
	for i := range plans {
		reasons += plans[i].Name + ": " + plans[i].Reason + "; "
	}
	return Infeasible("best", "no feasible plan ("+reasons+")")
}

// Tuning constants shared by the kernel planners. They absorb the
// pipeline realities the pure roofline misses (in-order dual issue,
// address generation, loop control, partial SIMD at tile edges) and
// were calibrated once against the absolute numbers the paper reports
// in Table II. TestTable2ForwardAnchors (conv_test.go) lists the cells
// they were fitted to and the ratio band the plans must stay in.
const (
	// simdEfficiency is the sustained fraction of the 8 flops/cycle
	// peak inside the innermost register-blocked GEMM loop. DGEMM on
	// SW26010 reaches ~88-95% (paper ref [8]); convolution kernels
	// with conversions and edge handling sustain less.
	simdEfficiency = 0.80
	// dmaOverlap is the fraction of DMA time hidden behind compute by
	// double-buffering. swDNN overlaps most but not all transfers.
	dmaOverlap = 0.60
	// kernelLaunch is the fixed athread spawn/join cost per kernel.
	kernelLaunch = 8e-6
	// convertFlopPerElem prices the inline single<->double conversion
	// required around register communication (Sec. IV-A).
	convertFlopPerElem = 1.0
)

// combine composes bound resource times into a wall time assuming
// partial DMA/compute overlap and serialized RLC beyond what the
// compute pipeline hides.
func combine(dma, compute, rlc float64) float64 {
	// RLC overlaps with compute when compute dominates; otherwise the
	// bus time shows.
	busy := compute
	if rlc > compute {
		busy = rlc
	}
	hidden := float64(dma * dmaOverlap)
	exposed := dma - hidden
	if busy >= hidden {
		return busy + exposed
	}
	return dma
}
