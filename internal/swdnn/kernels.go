package swdnn

import (
	"swcaffe/internal/f32"
	"swcaffe/internal/sw26010"
)

// The gradient summation that swCaffe moves onto the CPE clusters
// (Sec. V-A), run functionally on the mesh: the test suite checks it
// against the scalar loop and the MPE path. Implicit-GEMM convolution
// and pooling are priced (ConvImplicitPlan, PoolPlan), not executed;
// the NCHW-to-RCNB transform layer is neither, as no net builds an
// RCNB tensor.

// SumRun accumulates addend into acc elementwise on the mesh — the
// CPE-cluster gradient summation of Sec. V-A. Both live in simulated
// main memory; chunks stream through LDM, where each CPE adds its pair
// with f32.Add, packed and bit for bit the scalar loop. Returns the
// simulated time.
func SumRun(cg *sw26010.CoreGroup, acc, addend []float32) float64 {
	if len(acc) != len(addend) {
		panic("swdnn: SumRun length mismatch")
	}
	total := len(acc)
	chunk := 1024
	nChunks := (total + chunk - 1) / chunk
	return cg.Run(func(pe *sw26010.CPE) {
		if pe.ID >= nChunks {
			return // no chunk: the CPE allocates nothing
		}
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
			f32.Add(a[:nEl], a, b)
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
