package swdnn

// The amd64 bodies of the reference GEMMs: Go drivers around three
// packed-SSE2 primitives in gemm_amd64.s. SSE2 is part of the amd64
// baseline, so there is nothing to detect. The drivers re-slice every
// operand to exactly the length the assembly reads, so a short operand
// panics here, in Go, and never lets the assembly read past a slice.

// gemmNN is RefGEMM's and microGEMM's body: one gemmRow per row of A.
func gemmNN(a, b, c []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		gemmRow(c[i*n:(i+1)*n], a[i*k:(i+1)*k], 1, k, b)
	}
}

// gemmTN is RefGEMMTransA's body. It runs i-outer, unlike gemmTNGo, so
// that each C row is loaded once per four terms; row i's coefficients
// are column i of A, and each element still adds them in kk order.
func gemmTN(a, b, c []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		gemmRow(c[i*n:(i+1)*n], a[i:], m, k, b)
	}
}

// gemmRow adds a[kk·stride]·b[kk·n : (kk+1)·n] to crow (n = len(crow))
// for kk = 0 … k−1 in ascending order, skipping zero coefficients: the
// non-zero ones go to axpy4 four at a time, the last one to three to
// axpy one at a time.
func gemmRow(crow, a []float32, stride, k int, b []float32) {
	n := len(crow)
	var coef [4]float32
	var off [4]int
	q := 0
	for kk := 0; kk < k; kk++ {
		av := a[kk*stride]
		if av == 0 {
			continue
		}
		coef[q], off[q] = av, kk*n
		if q++; q == 4 {
			axpy4(crow, b[off[0]:off[0]+n], b[off[1]:off[1]+n], b[off[2]:off[2]+n], b[off[3]:off[3]+n], &coef)
			q = 0
		}
	}
	for r := 0; r < q; r++ {
		axpy(crow, b[off[r]:off[r]+n], coef[r])
	}
}

// gemmNT is RefGEMMTransB's body: dot4 per block of up to four rows of
// A and four columns of C, reading the B rows in place, and dotGo for
// the last n mod 4 columns. dot4 returns the sums; the `c += s` of the
// portable loop happens here.
func gemmNT(a, b, c []float32, m, k, n int) {
	var s [4][4]float32
	for i := 0; i < m; i += 4 {
		rows := min(4, m-i)
		ablk := a[i*k : (i+rows)*k]
		j := 0
		for ; j+4 <= n; j += 4 {
			dot4(&s, ablk, b[j*k:(j+4)*k])
			for r := 0; r < rows; r++ {
				c4 := c[(i+r)*n+j : (i+r)*n+j+4 : (i+r)*n+j+4]
				c4[0] += s[r][0]
				c4[1] += s[r][1]
				c4[2] += s[r][2]
				c4[3] += s[r][3]
			}
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			for r := 0; r < rows; r++ {
				c[(i+r)*n+j] += dotGo(ablk[r*k:(r+1)*k], brow)
			}
		}
	}
}

// axpy computes c[j] += a·b[j] for j < len(c). len(b) must equal
// len(c).
//
//go:noescape
func axpy(c, b []float32, a float32)

// axpy4 computes c[j] += a[0]·b0[j], then += a[1]·b1[j], a[2]·b2[j] and
// a[3]·b3[j], rounding each product and each sum, for j < len(c): four
// axpy passes in one. Every bᵢ must have len(c) elements.
//
//go:noescape
func axpy4(c, b0, b1, b2, b3 []float32, a *[4]float32)

// dot4 sets s[r][j] = +0 + a_r[0]·b_j[0] + a_r[1]·b_j[1] + …, taken in
// index order, for the four rows b_j of b ([4×k], row-major, k =
// len(b)/4) and the rows a_r of a ([rows×k], rows = len(a)/k, one to
// four); rows of s past the last row of a are set to zero. The b rows are
// transposed 4×4 in registers, so each lane accumulates one column.
//
//go:noescape
func dot4(s *[4][4]float32, a, b []float32)
