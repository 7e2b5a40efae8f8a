package swdnn

import (
	"fmt"

	"swcaffe/internal/sw26010"
)

// ConvShape describes one convolutional layer instance on one core
// group (paper Sec. IV-B notation: filter (No, Ni, K, K), input image
// (Ci, Ri, Ni), stride S, zero padding P, mini-batch B).
type ConvShape struct {
	B  int // mini-batch handled by this CG
	Ni int // input channels
	Ri int // input rows (height)
	Ci int // input cols (width)
	No int // output channels
	K  int // filter size (square)
	S  int // stride
	P  int // zero padding
}

// OutDims returns the output spatial dims (Ro, Co).
func (s ConvShape) OutDims() (ro, co int) {
	ro = (s.Ri+2*s.P-s.K)/s.S + 1
	co = (s.Ci+2*s.P-s.K)/s.S + 1
	return
}

// Validate reports a descriptive error for impossible configurations.
func (s ConvShape) Validate() error {
	if s.B <= 0 || s.Ni <= 0 || s.Ri <= 0 || s.Ci <= 0 || s.No <= 0 {
		return fmt.Errorf("swdnn: conv shape has non-positive dims: %+v", s)
	}
	if s.K <= 0 || s.S <= 0 || s.P < 0 {
		return fmt.Errorf("swdnn: conv shape has bad K/S/P: %+v", s)
	}
	ro, co := s.OutDims()
	if ro <= 0 || co <= 0 {
		return fmt.Errorf("swdnn: conv shape yields empty output: %+v", s)
	}
	return nil
}

// Flops returns the multiply-add count of one forward pass
// (2·B·Ni·No·Ro·Co·K², the convention used by the paper's Table II).
func (s ConvShape) Flops() float64 {
	ro, co := s.OutDims()
	return 2 * float64(s.B) * float64(s.Ni) * float64(s.No) *
		float64(ro) * float64(co) * float64(s.K) * float64(s.K)
}

func (s ConvShape) String() string {
	ro, co := s.OutDims()
	return fmt.Sprintf("conv{B%d %dx%dx%d -> %dx%dx%d k%d s%d p%d}",
		s.B, s.Ni, s.Ri, s.Ci, s.No, ro, co, s.K, s.S, s.P)
}

// --- host reference im2col / col2im -----------------------------------

// Im2colRef lowers one image (Ni, Ri, Ci) into the column matrix of
// shape (Ni·K·K, Ro·Co), Caffe layout: row index is (c·K+ky)·K+kx,
// column index is ho·Co+wo. Out-of-range taps read zero (implicit
// padding).
func Im2colRef(src []float32, s ConvShape, dst []float32) {
	ro, co := s.OutDims()
	if len(src) < s.Ni*s.Ri*s.Ci || len(dst) < s.Ni*s.K*s.K*ro*co {
		panic("swdnn: Im2colRef buffer too small")
	}
	idx := 0
	for c := 0; c < s.Ni; c++ {
		for ky := 0; ky < s.K; ky++ {
			for kx := 0; kx < s.K; kx++ {
				for oy := 0; oy < ro; oy++ {
					iy := oy*s.S + ky - s.P
					if iy < 0 || iy >= s.Ri {
						for ox := 0; ox < co; ox++ {
							dst[idx] = 0
							idx++
						}
						continue
					}
					rowBase := (c*s.Ri + iy) * s.Ci
					for ox := 0; ox < co; ox++ {
						ix := ox*s.S + kx - s.P
						if ix < 0 || ix >= s.Ci {
							dst[idx] = 0
						} else {
							dst[idx] = src[rowBase+ix]
						}
						idx++
					}
				}
			}
		}
	}
}

// Col2imRef is the adjoint of Im2colRef: it accumulates the column
// matrix back into an image (used by the backward pass for the input
// gradient). dst must be zeroed by the caller when accumulation across
// calls is not wanted.
func Col2imRef(col []float32, s ConvShape, dst []float32) {
	ro, co := s.OutDims()
	if len(dst) < s.Ni*s.Ri*s.Ci || len(col) < s.Ni*s.K*s.K*ro*co {
		panic("swdnn: Col2imRef buffer too small")
	}
	idx := 0
	for c := 0; c < s.Ni; c++ {
		for ky := 0; ky < s.K; ky++ {
			for kx := 0; kx < s.K; kx++ {
				for oy := 0; oy < ro; oy++ {
					iy := oy*s.S + ky - s.P
					if iy < 0 || iy >= s.Ri {
						idx += co
						continue
					}
					rowBase := (c*s.Ri + iy) * s.Ci
					for ox := 0; ox < co; ox++ {
						ix := ox*s.S + kx - s.P
						if ix >= 0 && ix < s.Ci {
							dst[rowBase+ix] += col[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// --- simulator-backed im2col (paper Fig. 4) ---------------------------

// Im2colRun executes the im2col lowering for one image on the CPE
// mesh: the (c, ky, kx) rows of the column matrix are dealt
// round-robin to the 64 CPEs; for each output row the CPE DMA-gets the
// corresponding input row into its LDM buffer, applies the pad shift,
// and DMA-puts one Co-long line of the column matrix (the "K×K line"
// plan of Fig. 4). Returns the simulated time.
func Im2colRun(cg *sw26010.CoreGroup, src []float32, s ConvShape, dst []float32) float64 {
	ro, co := s.OutDims()
	rows := s.Ni * s.K * s.K
	return cg.Run(func(pe *sw26010.CPE) {
		in := pe.Alloc(s.Ci)
		out := pe.Alloc(co)
		defer func() {
			pe.Release(s.Ci)
			pe.Release(co)
		}()
		for r := pe.ID; r < rows; r += sw26010.CPEsPerCG {
			c := r / (s.K * s.K)
			ky := (r / s.K) % s.K
			kx := r % s.K
			for oy := 0; oy < ro; oy++ {
				iy := oy*s.S + ky - s.P
				if iy < 0 || iy >= s.Ri {
					clear(out)
				} else {
					pe.DMAGet(in, src[(c*s.Ri+iy)*s.Ci:(c*s.Ri+iy)*s.Ci+s.Ci])
					for ox := 0; ox < co; ox++ {
						ix := ox*s.S + kx - s.P
						if ix < 0 || ix >= s.Ci {
							out[ox] = 0
						} else {
							out[ox] = in[ix]
						}
					}
					pe.ChargeFlops(float64(co)) // SIMD shift/select
				}
				pe.DMAPut(dst[(r*ro+oy)*co:(r*ro+oy)*co+co], out)
			}
		}
	})
}

// Im2colPlan prices the im2col lowering of a full mini-batch. The data
// volume is read B·Ni·K²·Ro input rows (Ci values each, strided) and
// written B·Ni·K²·Ro column-matrix lines (Co values each), exactly the
// per-row DMA schedule of Fig. 4.
func Im2colPlan(hw *sw26010.Model, s ConvShape) Plan {
	return cachedPlan(convKey(hw, opIm2col, s, 0), func() Plan {
		return im2colPlan(hw, s)
	})
}

func im2colPlan(hw *sw26010.Model, s ConvShape) Plan {
	ro, co := s.OutDims()
	lines := float64(s.B) * float64(s.Ni) * float64(s.K*s.K) * float64(ro)
	getBytes := lines * float64(s.Ci) * 4
	putBytes := lines * float64(co) * 4

	getBW := hw.DMABandwidth(sw26010.DMAGet, int64(s.Ci*4), sw26010.CPEsPerCG, int64(s.Ci*4))
	putBW := hw.DMABandwidth(sw26010.DMAPut, int64(co*4), sw26010.CPEsPerCG, int64(co*4))
	// Each line is an independent DMA descriptor; descriptors issue
	// from 64 CPEs concurrently.
	descTime := 2 * lines * hw.DMALatency / float64(sw26010.CPEsPerCG)
	dma := getBytes/getBW + putBytes/putBW + descTime
	compute := hw.ComputeTime(lines*float64(co)/simdEfficiency, sw26010.CPEsPerCG)

	return Plan{
		Name: "im2col", Feasible: true,
		Time:    combine(dma, compute, 0) + kernelLaunch,
		DMATime: dma, ComputeTime: compute,
		DMABytes: int64(getBytes + putBytes),
	}
}

// Col2imPlan prices the adjoint scatter. It moves the same volume as
// im2col but the put side is a read-modify-write accumulation into
// overlapping rows, so the write path is charged twice (read + write).
//
//swvet:ignore deadexport: invariance.json pins plan_col2im
func Col2imPlan(hw *sw26010.Model, s ConvShape) Plan {
	p := Im2colPlan(hw, s)
	p.Name = "col2im"
	extra := p.DMATime * 0.5
	p.DMATime += extra
	p.Time += extra
	p.DMABytes += p.DMABytes / 2
	return p
}
