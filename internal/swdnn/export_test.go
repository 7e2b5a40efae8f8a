package swdnn

import "swcaffe/internal/sw26010"

// PlanCacheSize returns the number of memoized entries currently held.
func PlanCacheSize() int {
	n := 0
	planCache.Range(func(_, _ any) bool { n++; return true })
	return n
}

// im2colNaive is the per-element lowering Im2colRef must match bit for
// bit: every column-matrix element tests its own tap against the image
// bounds.
func im2colNaive(src []float32, s ConvShape, dst []float32) {
	ro, co := s.OutDims()
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

// col2imNaive is the per-element accumulation Col2imRef must match bit
// for bit.
func col2imNaive(col []float32, s ConvShape, dst []float32) {
	ro, co := s.OutDims()
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

// withGoGEMMs runs f with the reference GEMMs dispatched to their
// portable bodies, as on a CPU without AVX, and then restores the
// choice made at init.
func withGoGEMMs(f func()) {
	saved := useAVX
	useAVX = false
	defer func() { useAVX = saved }()
	f()
}

// Im2colPlan prices the im2col lowering of a full mini-batch. The data
// volume is read B·Ni·K²·Ro input rows (Ci values each, strided) and
// written B·Ni·K²·Ro column-matrix lines (Co values each), exactly the
// per-row DMA schedule of Fig. 4. No net prices the lowering on its
// own (ConvExplicitPlan streams the column buffer in its volume); invariance.json pins plan_im2col
// and TestIm2colPlanMatchesSimulatedTime checks Im2colRun against it.
func Im2colPlan(hw *sw26010.Model, s ConvShape) Plan {
	ro, co := s.OutDims()
	lines := float64(float64(s.B) * float64(s.Ni) * float64(s.K*s.K) * float64(ro))
	getBytes := float64(lines * float64(s.Ci) * 4)
	putBytes := float64(lines * float64(co) * 4)

	getBW := hw.DMABandwidth(sw26010.DMAGet, int64(s.Ci*4), sw26010.CPEsPerCG, int64(s.Ci*4))
	putBW := hw.DMABandwidth(sw26010.DMAPut, int64(co*4), sw26010.CPEsPerCG, int64(co*4))
	// Each line is an independent DMA descriptor; descriptors issue
	// from 64 CPEs concurrently.
	descTime := float64(2 * lines * hw.DMALatency / float64(sw26010.CPEsPerCG))
	dma := getBytes/getBW + putBytes/putBW + descTime
	compute := hw.ComputeTime(lines*float64(co)/simdEfficiency, sw26010.CPEsPerCG)

	return Plan{
		Name: "im2col", Feasible: true,
		Time:    combine(dma, compute, 0) + kernelLaunch,
		DMATime: dma, ComputeTime: compute,
		DMABytes: int64(getBytes + putBytes),
	}
}
