package swdnn

import (
	"math"

	"swcaffe/internal/sw26010"
	"swcaffe/internal/tensor"
)

// Functional mesh kernels beyond GEMM/im2col: pooling (Sec. IV-D),
// the tensor-transformation layer (Sec. IV-C) and the gradient
// summation that swCaffe moves onto the CPE clusters (Sec. V-A).
// These run real data through the simulator — the test suite checks
// them against the host references — and double as executable
// documentation of the DMA plans the analytic models price.

// PoolMaxRun executes max pooling for one image (C, Ri, Ci) on the CPE
// mesh: each CPE claims whole channels; per channel it DMA-gets K-row
// bands into LDM and emits one pooled row per band (the "multiple K
// rows" plan of Sec. IV-D). Returns the simulated time.
//
//swvet:ignore deadexport: invariance.json pins pool_max
func PoolMaxRun(cg *sw26010.CoreGroup, src []float32, s PoolShape, dst []float32) float64 {
	if s.B != 1 {
		panic("swdnn: PoolMaxRun is per-image (B must be 1)")
	}
	ro, co := s.OutDims()
	return cg.Run(func(pe *sw26010.CPE) {
		band := pe.Alloc(s.K * s.Ci)
		out := pe.Alloc(co)
		defer func() {
			pe.Release(s.K * s.Ci)
			pe.Release(co)
		}()
		for c := pe.ID; c < s.C; c += sw26010.CPEsPerCG {
			chanBase := c * s.Ri * s.Ci
			for oy := 0; oy < ro; oy++ {
				y0 := oy*s.S - s.Pad
				rows := 0
				for ky := 0; ky < s.K; ky++ {
					iy := y0 + ky
					if iy < 0 || iy >= s.Ri {
						continue
					}
					pe.DMAGet(band[rows*s.Ci:(rows+1)*s.Ci], src[chanBase+iy*s.Ci:chanBase+(iy+1)*s.Ci])
					rows++
				}
				for ox := 0; ox < co; ox++ {
					best := float32(math.Inf(-1))
					x0 := ox*s.S - s.Pad
					for r := 0; r < rows; r++ {
						for kx := 0; kx < s.K; kx++ {
							ix := x0 + kx
							if ix < 0 || ix >= s.Ci {
								continue
							}
							if v := band[r*s.Ci+ix]; v > best {
								best = v
							}
						}
					}
					out[ox] = best
				}
				pe.ChargeFlops(float64(co * s.K * s.K))
				pe.DMAPut(dst[(c*ro+oy)*co:(c*ro+oy)*co+co], out)
			}
		}
	})
}

// RefPoolMax is the host reference for PoolMaxRun.
//
//swvet:ignore deadexport: test oracle; TestPoolMaxRunMatchesRef checks the pinned PoolMaxRun against it
func RefPoolMax(src []float32, s PoolShape, dst []float32) {
	ro, co := s.OutDims()
	for c := 0; c < s.C; c++ {
		for oy := 0; oy < ro; oy++ {
			for ox := 0; ox < co; ox++ {
				best := float32(math.Inf(-1))
				for ky := 0; ky < s.K; ky++ {
					iy := oy*s.S - s.Pad + ky
					if iy < 0 || iy >= s.Ri {
						continue
					}
					for kx := 0; kx < s.K; kx++ {
						ix := ox*s.S - s.Pad + kx
						if ix < 0 || ix >= s.Ci {
							continue
						}
						if v := src[(c*s.Ri+iy)*s.Ci+ix]; v > best {
							best = v
						}
					}
				}
				dst[(c*ro+oy)*co+ox] = best
			}
		}
	}
}

// TransformRun executes the NCHW -> RCNB layout transposition on the
// mesh (Sec. IV-C): each CPE claims (h, w) pixel positions, gathers
// the (N, C) plane of its pixel with strided DMA and writes it back
// contiguously in the RCNB order. Returns the simulated time.
//
//swvet:ignore deadexport: invariance.json pins transform
func TransformRun(cg *sw26010.CoreGroup, src *tensor.Tensor, dst *tensor.Tensor) float64 {
	if src.Layout != tensor.NCHW || dst.Layout != tensor.RCNB || !src.SameShape(dst) {
		panic("swdnn: TransformRun wants NCHW src and RCNB dst of equal shape")
	}
	n, c, h, w := src.N, src.C, src.H, src.W
	hw := h * w
	return cg.Run(func(pe *sw26010.CPE) {
		plane := pe.Alloc(n * c)
		defer pe.Release(n * c)
		for px := pe.ID; px < hw; px += sw26010.CPEsPerCG {
			// Gather src[in][ic][px] for all (in, ic): stride hw apart.
			pe.DMAGetStrided(plane, src.Data[px:], n*c, 1, hw)
			// Transpose (N, C) -> (C, N) inside LDM with SIMD shuffles.
			out := pe.Alloc(n * c)
			for ic := 0; ic < c; ic++ {
				for in := 0; in < n; in++ {
					out[ic*n+in] = plane[in*c+ic]
				}
			}
			pe.ChargeFlops(float64(n * c))
			pe.DMAPut(dst.Data[px*c*n:(px+1)*c*n], out)
			pe.Release(n * c)
		}
	})
}

// SumRun accumulates addend into acc elementwise on the mesh — the
// CPE-cluster gradient summation of Sec. V-A. Both live in simulated
// main memory; chunks stream through LDM. Returns the simulated time.
func SumRun(cg *sw26010.CoreGroup, acc, addend []float32) float64 {
	if len(acc) != len(addend) {
		panic("swdnn: SumRun length mismatch")
	}
	total := len(acc)
	chunk := 1024
	nChunks := (total + chunk - 1) / chunk
	return cg.Run(func(pe *sw26010.CPE) {
		a := pe.Alloc(chunk)
		b := pe.Alloc(chunk)
		defer func() {
			pe.Release(chunk)
			pe.Release(chunk)
		}()
		for ci := pe.ID; ci < nChunks; ci += sw26010.CPEsPerCG {
			lo := ci * chunk
			hi := lo + chunk
			if hi > total {
				hi = total
			}
			nEl := hi - lo
			pe.DMAGet(a[:nEl], acc[lo:hi])
			pe.DMAGet(b[:nEl], addend[lo:hi])
			for i := 0; i < nEl; i++ {
				a[i] += b[i]
			}
			pe.ChargeFlops(float64(nEl))
			pe.DMAPut(acc[lo:hi], a[:nEl])
		}
	})
}

// MPESumTime prices the same summation performed by the management
// core alone, for the Sec. V-A comparison.
func MPESumTime(hw *sw26010.Model, elems int) float64 {
	return hw.MPECopyTime(int64(elems) * 4 * 3) // read a, read b, write a
}
