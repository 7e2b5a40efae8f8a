package swdnn

import (
	"math"

	"swcaffe/internal/sw26010"
)

// Convolution strategies (paper Sec. IV-B). swCaffe mixes two plans:
//
//   - the *explicit* GEMM transformation inherited from Caffe: im2col,
//     one large GEMM per image, col2im on the way back; and
//   - the *implicit* GEMM transformation of swDNN (paper ref [4]):
//     direct convolution in the (R, C, N, B) layout with blocking on
//     image width and input/output channels, which avoids the im2col
//     traffic entirely but needs at least 64 channels on each side to
//     feed the 256-bit SIMD lanes and the register buses.
//
// Pricing model. Each plan combines a mechanistic DMA-traffic term
// (volumes priced through the Fig. 2 bandwidth curves, including the
// batch-innermost block granularity of the RCNB layout) with a
// sustained-efficiency term for the compute pipeline. The efficiency
// surfaces cannot be derived from first principles — they depend on
// the authors' hand-scheduled assembly — so they are digitized from
// the paper's own Table II measurements over (min-channel, image
// width) and interpolated elsewhere; Table II is thereby reproduced
// by construction at its grid points while AlexNet / ResNet /
// GoogLeNet shapes (different kernels, batches and widths) are
// genuine predictions of the calibrated surface. TestTable2ForwardAnchors
// (conv_test.go) holds the paper's forward cells and the 0.8–1.25 ratio
// band the plans must stay in; the repository's
// testdata/evaluation.golden pins the whole table as swbench prints it.

// Pass identifies which of the three convolution computations a plan
// prices (Table II columns).
type Pass uint8

const (
	// Forward is the inference/training forward pass.
	Forward Pass = iota
	// BackwardWeight computes the filter gradient.
	BackwardWeight
	// BackwardInput computes the input gradient.
	BackwardInput
)

func (p Pass) String() string {
	switch p {
	case Forward:
		return "forward"
	case BackwardWeight:
		return "backward-weight"
	case BackwardInput:
		return "backward-input"
	default:
		return "pass(?)"
	}
}

// Implicit-plan feasibility thresholds (the dashes of Table II): the
// forward kernel needs >= 64 channels on both sides to fill the
// 256-bit SIMD lanes and the register-communication tiles; the
// backward kernels tile the transposed problem and need >= 128.
const (
	implicitMinChannelsFwd = 64
	implicitMinChannelsBwd = 128
)

// Backward-pass time ratios relative to forward, digitized from
// Table II column medians.
const (
	implicitBwdWeightRatio = 0.92
	implicitBwdInputRatio  = 1.02
	explicitBwdWeightRatio = 0.85 // no fresh im2col: column buffer reused
	explicitBwdInputRatio  = 1.80 // extra col2im scatter with RMW
)

// effGrid is a sustained-efficiency surface over min(Ni,No) x width,
// bilinearly interpolated on log2 axes and clamped at the edges.
type effGrid struct {
	chans  []float64
	widths []float64
	grid   [][]float64
}

func (g *effGrid) at(minC, ci int) float64 {
	fc := clampRange(float64(minC), g.chans)
	fw := clampRange(float64(ci), g.widths)
	c0, c1, ct := interpIdx(fc, g.chans)
	w0, w1, wt := interpIdx(fw, g.widths)
	e0 := float64(g.grid[c0][w0]*(1-wt)) + float64(g.grid[c0][w1]*wt)
	e1 := float64(g.grid[c1][w0]*(1-wt)) + float64(g.grid[c1][w1]*wt)
	return float64(e0*(1-ct)) + float64(e1*ct)
}

// implicitEffGrid: fractions of CG peak sustained by the implicit
// kernel, anchored at the nine Table II rows (batch 128, K=3).
var implicitEffGrid = effGrid{
	chans:  []float64{64, 128, 256, 512},
	widths: []float64{14, 28, 56, 112, 224},
	grid: [][]float64{
		// width: 14     28     56     112    224
		{0.060, 0.250, 0.130, 0.196, 0.148}, // minC 64
		{0.140, 0.330, 0.300, 0.270, 0.200}, // minC 128
		{0.300, 0.380, 0.356, 0.310, 0.250}, // minC 256
		{0.400, 0.385, 0.370, 0.330, 0.280}, // minC 512
	},
}

// explicitEffGrid: ditto for the explicit im2col+GEMM pipeline
// (includes the lowering overhead, which is why the 224-width column
// is so poor: im2col dominates the first VGG layers, Sec. VI-A).
var explicitEffGrid = effGrid{
	chans:  []float64{3, 64, 128, 256, 512},
	widths: []float64{14, 28, 56, 112, 224},
	grid: [][]float64{
		// width: 14     28     56     112    224
		{0.020, 0.030, 0.050, 0.020, 0.007}, // minC 3
		{0.050, 0.170, 0.120, 0.130, 0.082}, // minC 64
		{0.120, 0.400, 0.437, 0.203, 0.100}, // minC 128
		{0.200, 0.460, 0.560, 0.250, 0.120}, // minC 256
		{0.260, 0.480, 0.560, 0.250, 0.120}, // minC 512
	},
}

func clampRange(v float64, axis []float64) float64 {
	if v < axis[0] {
		return axis[0]
	}
	if v > axis[len(axis)-1] {
		return axis[len(axis)-1]
	}
	return v
}

func interpIdx(v float64, axis []float64) (lo, hi int, t float64) {
	for i := 0; i < len(axis)-1; i++ {
		if v <= axis[i+1] {
			lo, hi = i, i+1
			t = (math.Log2(v) - math.Log2(axis[i])) / (math.Log2(axis[i+1]) - math.Log2(axis[i]))
			return
		}
	}
	return len(axis) - 1, len(axis) - 1, 0
}

// kernelAdj scales efficiency for non-3x3 kernels: 1x1 convolutions
// offer less register reuse per loaded element; very large kernels
// amortize loads slightly better. Mild, clamped.
func kernelAdj(k int) float64 {
	a := math.Pow(float64(k*k)/9.0, 0.4)
	if a < 0.36 {
		a = 0.36
	}
	if a > 1.10 {
		a = 1.10
	}
	return a
}

// workAdj scales efficiency for small per-layer work granularity:
// B·Ro·Co output positions feed the 64 CPEs' SIMD lanes and determine
// the DMA run lengths, so layers with few positions (small batches on
// small feature maps — ResNet's 7x7 stages at sub-batch 8, GoogLeNet's
// deep inception modules) starve the mesh. The threshold 128·14·14 is
// the smallest work of any Table II anchor, so every calibration point
// keeps adj = 1.
func workAdj(b, ro, co int) float64 {
	const anchorWork = 128 * 14 * 14
	w := float64(b*ro*co) / anchorWork
	if w >= 1 {
		return 1
	}
	a := math.Pow(w, 0.5)
	if a < 0.13 {
		a = 0.13
	}
	return a
}

func minChannels(s ConvShape) int {
	if s.Ni < s.No {
		return s.Ni
	}
	return s.No
}

// ConvImplicitPlan prices the implicit-GEMM convolution for one pass.
// Results are memoized per (model, shape, pass).
func ConvImplicitPlan(hw *sw26010.Model, s ConvShape, pass Pass) Plan {
	return cachedPlan(convKey(hw, opConvImplicit, s, pass), func() Plan {
		return convImplicitPlan(hw, s, pass)
	})
}

func convImplicitPlan(hw *sw26010.Model, s ConvShape, pass Pass) Plan {
	if err := s.Validate(); err != nil {
		return Infeasible("implicit", err.Error())
	}
	minC := minChannels(s)
	threshold := implicitMinChannelsFwd
	if pass != Forward {
		threshold = implicitMinChannelsBwd
	}
	if minC < threshold {
		return Infeasible("implicit",
			"channel count too small for SIMD/register-communication blocking")
	}
	ro, co := s.OutDims()
	flops := s.Flops()
	// Efficiency is indexed by the *output* width: that is the extent
	// the kernel's width-blocking and GEMM n-dimension see (for the
	// stride-1 Table II anchors input and output widths coincide).
	eff := implicitEffGrid.at(minC, co) * kernelAdj(s.K) * workAdj(s.B, ro, co)
	compute := flops / (sw26010.CGPeakFlops * eff)

	// Traffic: input and output tensors stream once; the filter block
	// is re-fetched per output-row block. The RCNB layout makes the
	// mini-batch the innermost dimension, so the strided block
	// granularity is B elements.
	inBytes := float64(4 * float64(s.B*s.Ni*s.Ri*s.Ci))
	outBytes := float64(4 * float64(s.B*s.No*ro*co))
	filterBytes := float64(4 * float64(s.No*s.Ni*s.K*s.K) * float64(ro))
	block := int64(s.B * 4)
	bw := hw.DMABandwidth(sw26010.DMAGet, int64(hw.LDMBudget/2), sw26010.CPEsPerCG, block)
	dma := (inBytes + outBytes + filterBytes) / bw

	t := math.Max(compute, dma) + kernelLaunch
	switch pass {
	case BackwardWeight:
		t *= implicitBwdWeightRatio
	case BackwardInput:
		t *= implicitBwdInputRatio
	}
	return Plan{
		Name: "implicit", Feasible: true,
		Time:        t,
		ComputeTime: compute,
		DMATime:     dma,
		Flops:       flops,
		DMABytes:    int64(inBytes + outBytes + filterBytes),
	}
}

// ConvExplicitPlan prices the explicit-GEMM convolution for one pass:
// im2col (skipped for 1x1/stride-1 where the input already is the
// column matrix, as Caffe does), a per-image GEMM, and col2im on the
// input-gradient path. Results are memoized per (model, shape, pass).
func ConvExplicitPlan(hw *sw26010.Model, s ConvShape, pass Pass) Plan {
	return cachedPlan(convKey(hw, opConvExplicit, s, pass), func() Plan {
		return convExplicitPlan(hw, s, pass)
	})
}

func convExplicitPlan(hw *sw26010.Model, s ConvShape, pass Pass) Plan {
	if err := s.Validate(); err != nil {
		return Infeasible("explicit", err.Error())
	}
	ro, co := s.OutDims()
	flops := s.Flops()
	eff := explicitEffGrid.at(minChannels(s), co) * kernelAdj(s.K) * workAdj(s.B, ro, co)
	compute := flops / (sw26010.CGPeakFlops * eff)

	// Streamed volumes: input read, output written, plus the column
	// buffer written and re-read when lowering is needed.
	kdim := s.K * s.K * s.Ni
	inBytes := float64(4 * float64(s.B*s.Ni*s.Ri*s.Ci))
	outBytes := float64(4 * float64(s.B*s.No*ro*co))
	colBytes := 0.0
	if !(s.K == 1 && s.S == 1 && s.P == 0) {
		colBytes = float64(2 * 4 * float64(s.B) * float64(kdim) * float64(ro*co))
	}
	rowBlock := int64(co * 4)
	bw := hw.DMABandwidth(sw26010.DMAGet, int64(hw.LDMBudget/2), sw26010.CPEsPerCG, rowBlock)
	dma := (inBytes + outBytes + colBytes) / bw

	t := math.Max(compute, dma) + kernelLaunch
	switch pass {
	case BackwardWeight:
		t *= explicitBwdWeightRatio
	case BackwardInput:
		t *= explicitBwdInputRatio
	}
	return Plan{
		Name: "explicit", Feasible: true,
		Time:        t,
		ComputeTime: compute,
		DMATime:     dma,
		Flops:       flops,
		DMABytes:    int64(inBytes + outBytes + colBytes),
	}
}

// ConvPlans returns (implicit, explicit, best) for the given pass —
// the mixed-strategy selection swCaffe performs during its first two
// training iterations (Sec. VI-A).
func ConvPlans(hw *sw26010.Model, s ConvShape, pass Pass) (implicit, explicit, best Plan) {
	implicit = ConvImplicitPlan(hw, s, pass)
	explicit = ConvExplicitPlan(hw, s, pass)
	best = Best(implicit, explicit)
	return
}

// --- functional convolution -------------------------------------------

// RefConvForward computes a direct (naive) convolution for one image:
// src (Ni, Ri, Ci) with weights (No, Ni, K, K) and optional bias (No)
// into dst (No, Ro, Co). It is the golden reference for all other
// paths.
func RefConvForward(src, weights, bias []float32, s ConvShape, dst []float32) {
	ro, co := s.OutDims()
	for o := 0; o < s.No; o++ {
		var b float32
		if bias != nil {
			b = bias[o]
		}
		for oy := 0; oy < ro; oy++ {
			for ox := 0; ox < co; ox++ {
				acc := b
				for c := 0; c < s.Ni; c++ {
					wBase := ((o*s.Ni + c) * s.K) * s.K
					for ky := 0; ky < s.K; ky++ {
						iy := oy*s.S + ky - s.P
						if iy < 0 || iy >= s.Ri {
							continue
						}
						rowBase := (c*s.Ri + iy) * s.Ci
						for kx := 0; kx < s.K; kx++ {
							ix := ox*s.S + kx - s.P
							if ix < 0 || ix >= s.Ci {
								continue
							}
							acc += float32(src[rowBase+ix] * weights[wBase+ky*s.K+kx])
						}
					}
				}
				dst[(o*ro+oy)*co+ox] = acc
			}
		}
	}
}

// ConvExplicitRun executes the explicit-GEMM forward convolution for
// one image on the simulator: Im2colRun lowers the image, then GEMMRun
// multiplies the filter matrix against the column buffer. Returns the
// simulated time. dst receives (No, Ro, Co); bias, if non-nil, is
// added on the mesh afterwards.
func ConvExplicitRun(cg *sw26010.CoreGroup, src, weights, bias []float32, s ConvShape, dst []float32) float64 {
	ro, co := s.OutDims()
	kdim := s.K * s.K * s.Ni
	// Pooled column buffer: Im2colRun writes every element, so no
	// clearing is needed on reuse.
	colBox := getStaging(kdim * ro * co)
	defer putStaging(colBox)
	col := *colBox
	t := Im2colRun(cg, src, s, col)
	clear(dst[:s.No*ro*co])
	t += GEMMRun(cg, weights, col, dst, s.No, kdim, ro*co)
	if bias != nil {
		t += cg.Run(func(pe *sw26010.CPE) {
			n := ro * co
			for o := pe.ID; o < s.No; o += sw26010.CPEsPerCG {
				buf := pe.Alloc(n)
				pe.DMAGet(buf, dst[o*n:(o+1)*n])
				for i := range buf {
					buf[i] += bias[o]
				}
				pe.ChargeFlops(float64(n))
				pe.DMAPut(dst[o*n:(o+1)*n], buf)
				pe.Release(n)
			}
		})
	}
	return t
}
