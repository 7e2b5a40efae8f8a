package swdnn

// The amd64 bodies of the reference GEMMs: one AVX call per GEMM
// (gemm_amd64.s) when the CPU and OS support AVX, checked once at init
// by hasAVX, and the portable Go bodies otherwise. The wrappers re-slice
// every operand to exactly the length the assembly reads, so a short
// operand panics here, in Go, and never lets the assembly read past a
// slice.

// useAVX selects the assembly bodies; tests clear it to run the Go ones.
var useAVX = hasAVX()

// gemmMask holds the VMASKMOVPS lane masks: the 8 words at index w
// select the last w lanes, those at 16−r the first r.
var gemmMask = [24]int32{8: -1, 9: -1, 10: -1, 11: -1, 12: -1, 13: -1, 14: -1, 15: -1}

// gemmNN is RefGEMM's and microGEMM's body.
func gemmNN(a, b, c []float32, m, k, n int) {
	if !useAVX || min(m, k, n) < 1 {
		gemmNNGo(a, b, c, m, k, n)
		return
	}
	gemmNNAVX(a[:m*k], b[:k*n], c[:m*n], m, k, n, k, 1)
}

// gemmTN is RefGEMMTransA's body: the NN body reading A by columns.
// It runs i-outer, unlike gemmTNGo, but each element still adds its
// terms in kk order.
func gemmTN(a, b, c []float32, m, k, n int) {
	if !useAVX || min(m, k, n) < 1 {
		gemmTNGo(a, b, c, m, k, n)
		return
	}
	gemmNNAVX(a[:k*m], b[:k*n], c[:m*n], m, k, n, 1, m)
}

// gemmNT is RefGEMMTransB's body. The assembly needs eight rows of B
// for a block of columns, so n < 8 runs the Go body.
func gemmNT(a, b, c []float32, m, k, n int) {
	if !useAVX || min(m, k) < 1 || n < 8 {
		gemmNTGo(a, b, c, m, k, n)
		return
	}
	gemmNTAVX(a[:m*k], b[:n*k], c[:m*n], m, k, n)
}

// hasAVX reports whether the CPU has AVX and the OS saves YMM state.
func hasAVX() bool

// gemmNNAVX computes C[m×n] += A·B, B [k×n], where A's element (i, kk)
// is a[i·rs + kk·ks]: element (i, j) adds a·B[kk, j] for kk ascending,
// rounding each product and each sum and skipping zero coefficients.
// m, k and n must be positive.
//
//go:noescape
func gemmNNAVX(a, b, c []float32, m, k, n, rs, ks int)

// gemmNTAVX computes C[m×n] += A·Bᵀ, A [m×k], B [n×k]: element (i, j)
// adds +0 + A[i,0]·B[j,0] + A[i,1]·B[j,1] + …, summed in kk order with
// no term skipped. m and k must be positive and n at least 8.
//
//go:noescape
func gemmNTAVX(a, b, c []float32, m, k, n int)
