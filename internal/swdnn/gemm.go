package swdnn

import (
	"fmt"
	"sync"

	"swcaffe/internal/sw26010"
)

// The GEMM kernel (paper Sec. IV-A, Fig. 3). C[m×n] += A[m×k] · B[k×n],
// row-major. Matrices are partitioned across the 8×8 CPE mesh: CPE(i,j)
// owns block (i,j) of each operand, sized (m/8 × k/8), (k/8 × n/8) and
// (m/8 × n/8). The product is computed in 8 steps; at step t the owner
// of A(i,t) broadcasts its tile along row i and the owner of B(t,j)
// broadcasts its tile along column j over the register buses, so every
// operand element is fetched from main memory exactly once (the optimal
// flop-to-byte design of the paper).
//
// (The paper's prose swaps "row" and "column" relative to its own
// Fig. 3; we implement the figure — the SUMMA broadcast pattern.)

const mesh = sw26010.MeshDim

// GEMMRun executes C += A·B functionally on the given core group and
// returns the simulated kernel time. A, B and C live in simulated main
// memory (host slices). It runs the tiling GEMMPlan prices: when a
// dimension is not a multiple of the plan's macro-block, the MPE
// zero-pads the operands into staging buffers of the block multiples
// first (charged only through the DMA of the padded sizes, as swCaffe's
// staging does). C's bits do not depend on the padding: padded A
// columns are zero coefficients, which the kernel skips, and padded
// rows and columns of C are discarded.
func GEMMRun(cg *sw26010.CoreGroup, a, b, c []float32, m, k, n int) float64 {
	checkGEMMArgs(a, b, c, m, k, n)
	p := GEMMPlan(cg.Model, m, k, n)
	if !p.Feasible {
		panic(fmt.Sprintf("swdnn: GEMM (%d,%d,%d): %s", m, k, n, p.Reason))
	}
	bm, bk, bn := p.Block[0], p.Block[1], p.Block[2]
	mp, kp, np := roundUp(m, bm), roundUp(k, bk), roundUp(n, bn)
	if mp == m && kp == k && np == n {
		return gemmPadded(cg, a, b, c, m, k, n, bm, bk, bn)
	}
	// Ragged dims stage through recycled zero-padded buffers (the MPE
	// staging copy swCaffe performs); steady-state this allocates
	// nothing.
	ap, bp, cp := getStaging(mp*kp), getStaging(kp*np), getStaging(mp*np)
	padMatrix(a, m, k, mp, kp, *ap)
	padMatrix(b, k, n, kp, np, *bp)
	padMatrix(c, m, n, mp, np, *cp)
	t := gemmPadded(cg, *ap, *bp, *cp, mp, kp, np, bm, bk, bn)
	unpadMatrix(*cp, c, m, n, np)
	putStaging(ap)
	putStaging(bp)
	putStaging(cp)
	return t
}

func checkGEMMArgs(a, b, c []float32, m, k, n int) {
	if m <= 0 || k <= 0 || n <= 0 {
		panic(fmt.Sprintf("swdnn: GEMM dims (%d,%d,%d) must be positive", m, k, n))
	}
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("swdnn: GEMM operand slice too short")
	}
}

func roundUp(x, b int) int { return (x + b - 1) / b * b }

// staging recycles the zero-padded staging matrices (and the explicit
// convolution's column buffers) across kernel invocations. It is a
// free list of *[]float32 boxes, and the box a caller got is the box it
// hands back, so neither get nor put allocates once it is warm. Unlike
// a sync.Pool it keeps its buffers across garbage collections: a
// padded operand can exceed 100 KB, and reallocating it after every GC
// would cost more than holding it.
var staging struct {
	mu   sync.Mutex
	free []*[]float32
}

// getStaging returns a box holding a length-n buffer whose contents
// are unspecified; callers must fully overwrite or clear it, and return
// the same box with putStaging. A buffer too small for n is replaced
// inside its box, so a warm call allocates nothing.
func getStaging(n int) *[]float32 {
	var bp *[]float32
	staging.mu.Lock()
	if last := len(staging.free) - 1; last >= 0 {
		bp = staging.free[last]
		staging.free = staging.free[:last]
	}
	staging.mu.Unlock()
	if bp == nil {
		bp = new([]float32)
	}
	if cap(*bp) < n {
		*bp = make([]float32, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putStaging(bp *[]float32) {
	staging.mu.Lock()
	staging.free = append(staging.free, bp)
	staging.mu.Unlock()
}

// padMatrix zero-pads an (r x c) matrix into the (rp x cp) buffer dst.
func padMatrix(src []float32, r, c, rp, cp int, dst []float32) {
	clear(dst[:rp*cp])
	for i := 0; i < r; i++ {
		copy(dst[i*cp:i*cp+c], src[i*c:(i+1)*c])
	}
}

func unpadMatrix(src, dst []float32, r, c, cp int) {
	for i := 0; i < r; i++ {
		copy(dst[i*c:(i+1)*c], src[i*cp:i*cp+c])
	}
}

// gemmPadded runs the blocked SUMMA kernel for dimensions that are
// multiples of the macro-block (bm, bk, bn) GEMMPlan chose, whose
// per-CPE tiles plus two communication buffers fit the LDM budget.
// Inside each macro-block the mesh performs the 8-step register-
// communication product, each step three supersteps: the CPEs of
// column t broadcast their A tiles along their rows; every other CPE
// receives its A, and the CPEs of row t broadcast their B tiles down
// their columns; every other CPE receives its B, and all multiply.
// Each CPE keeps its program order and every send precedes its
// receives, so the clocks are those of a concurrent run.
func gemmPadded(cg *sw26010.CoreGroup, a, b, c []float32, m, k, n, bm, bk, bn int) float64 {
	tm, tk, tn := bm/mesh, bk/mesh, bn/mesh // per-CPE tile dims
	flops := 2 * float64(tm) * float64(tk) * float64(tn) / simdEfficiency
	convert := convertFlopPerElem * float64(tm*tk+tk*tn)
	return cg.RunSteps(sw26010.CPEsPerCG, func(ms *sw26010.Mesh) {
		// Each CPE's A, B and C tiles, and the A tile of the current step.
		var at, bt, ct, aCur [sw26010.CPEsPerCG][]float32
		ms.Each(func(pe *sw26010.CPE) {
			at[pe.ID] = pe.Alloc(tm * tk)
			bt[pe.ID] = pe.Alloc(tk * tn)
			ct[pe.ID] = pe.Alloc(tm * tn)
		})
		for bi := 0; bi < m; bi += bm {
			for bj := 0; bj < n; bj += bn {
				// Load each CPE's C tile: rows bi+i*tm .. , cols bj+j*tn ..
				ms.Each(func(pe *sw26010.CPE) {
					pe.DMAGetStrided(ct[pe.ID], c[(bi+pe.Row*tm)*n+bj+pe.Col*tn:], tm, tn, n)
				})
				for bt0 := 0; bt0 < k; bt0 += bk {
					// Load A(i, j) and B(i, j) tiles of this macro-block.
					ms.Each(func(pe *sw26010.CPE) {
						i, j := pe.Row, pe.Col
						pe.DMAGetStrided(at[pe.ID], a[(bi+i*tm)*k+bt0+j*tk:], tm, tk, k)
						pe.DMAGetStrided(bt[pe.ID], b[(bt0+i*tk)*n+bj+j*tn:], tk, tn, n)
					})
					ms.Barrier()
					for t := 0; t < mesh; t++ {
						ms.Each(func(pe *sw26010.CPE) {
							if pe.Col == t {
								pe.RowBroadcast(at[pe.ID])
								aCur[pe.ID] = at[pe.ID]
							}
						})
						ms.Each(func(pe *sw26010.CPE) {
							if pe.Col != t {
								aCur[pe.ID] = pe.RowRecv(t)
							}
							if pe.Row == t {
								pe.ColBroadcast(bt[pe.ID])
							}
						})
						ms.Each(func(pe *sw26010.CPE) {
							bCur := bt[pe.ID]
							if pe.Row != t {
								bCur = pe.ColRecv(t)
							}
							microGEMM(ct[pe.ID], aCur[pe.ID], bCur, tm, tk, tn)
							pe.ChargeFlops(flops)
							pe.ChargeFlops(convert)
						})
					}
					ms.Barrier()
				}
				ms.Each(func(pe *sw26010.CPE) {
					pe.DMAPutStrided(c[(bi+pe.Row*tm)*n+bj+pe.Col*tn:], ct[pe.ID], tm, tn, n)
				})
			}
		}
		ms.Each(func(pe *sw26010.CPE) {
			pe.Release(tm * tk)
			pe.Release(tk * tn)
			pe.Release(tm * tn)
		})
	})
}

// microGEMM is the host-side stand-in for the CPE's register-blocked
// SIMD inner loop: ct[tm×tn] += a[tm×tk]·b[tk×tn]. It is RefGEMM's body
// without the argument check (gemmPadded sizes every tile): one AVX
// call on amd64 CPUs that have AVX, gemmNNGo elsewhere, the same bits
// either way.
func microGEMM(ct, a, b []float32, tm, tk, tn int) {
	gemmNN(a, b, ct, tm, tk, tn)
}

// planBlockCandidates is the candidate set of the tile search: blocks
// need not divide the dimension (the ragged edge is padded, and the
// plan prices the padded volume), which lets awkward dimensions such as
// n = Ho·Wo = 3136 still use large DMA blocks.
func planBlockCandidates(dim int) []int {
	out := []int{mesh}
	for _, c := range []int{16, 32, 48, 64, 96, 128, 192, 256, 384, 512} {
		if c < dim+mesh {
			out = append(out, c)
		}
	}
	return out
}

// searchPlanBlocks is the GEMM's one tile search: it prices every
// feasible candidate tiling with the full cost model and returns the
// fastest plan (the first one on a tie). GEMMPlan memoizes it per
// (model, shape), and GEMMRun executes the tiling it picks.
func searchPlanBlocks(hw *sw26010.Model, m, k, n int) Plan {
	best := Plan{Reason: "no tiling fits the LDM budget"}
	for _, cm := range planBlockCandidates(m) {
		for _, ck := range planBlockCandidates(k) {
			for _, cn := range planBlockCandidates(n) {
				p, ok := priceGEMM(hw, m, k, n, cm, ck, cn)
				if ok && (!best.Feasible || p.Time < best.Time) {
					best = p
				}
			}
		}
	}
	return best
}

// priceGEMM evaluates the blocked SUMMA schedule for one candidate
// tiling. ok is false when the tiles do not fit the LDM budget.
func priceGEMM(hw *sw26010.Model, m, k, n, bm, bk, bn int) (Plan, bool) {
	tm, tk, tn := bm/mesh, bk/mesh, bn/mesh
	ldm := 4 * (tm*tk + tk*tn + tm*tn + 2*max(tm*tk, tk*tn))
	if ldm > hw.LDMBudget {
		return Plan{}, false
	}
	nBi := (m + bm - 1) / bm
	nBj := (n + bn - 1) / bn
	nBt := (k + bk - 1) / bk
	mp, kp, np := nBi*bm, nBt*bk, nBj*bn

	var p Plan
	p.Feasible = true
	p.Block = [3]int{bm, bk, bn}

	cGet := hw.DMATime(sw26010.DMAGet, int64(tm*tn*4), sw26010.CPEsPerCG, int64(tn*4))
	cPut := hw.DMATime(sw26010.DMAPut, int64(tm*tn*4), sw26010.CPEsPerCG, int64(tn*4))
	aGet := hw.DMATime(sw26010.DMAGet, int64(tm*tk*4), sw26010.CPEsPerCG, int64(tk*4))
	bGet := hw.DMATime(sw26010.DMAGet, int64(tk*tn*4), sw26010.CPEsPerCG, int64(tn*4))
	p.DMATime = float64(nBi*nBj) * (cGet + cPut + float64(float64(nBt)*(aGet+bGet)))

	p.Flops = 2 * float64(mp) * float64(kp) * float64(np)
	convFlops := float64(convertFlopPerElem * float64(nBi*nBj*nBt) * float64(mesh) * float64(tm*tk+tk*tn) * sw26010.CPEsPerCG)
	p.ComputeTime = hw.ComputeTime(p.Flops/simdEfficiency+convFlops, sw26010.CPEsPerCG)

	rlcBytesPerCPE := int64(float64((tm*tk+tk*tn)*4) * hw.SinglePrecisionRLCPenalty)
	p.RLCTime = float64(nBi*nBj*nBt*mesh) * hw.RLCTime(rlcBytesPerCPE)

	p.DMABytes = int64(nBi*nBj) * int64(bm*bn*8+nBt*(bm*bk+bk*bn)*4)
	p.RLCBytes = rlcBytesPerCPE * int64(nBi*nBj*nBt*mesh) * sw26010.CPEsPerCG
	p.Time = combine(p.DMATime, p.ComputeTime, p.RLCTime) + kernelLaunch
	return p, true
}

// GEMMPlan prices C[m×n] += A[m×k]·B[k×n] on one core group without
// executing it. Its Block is the macro-block tiling GEMMRun executes.
func GEMMPlan(hw *sw26010.Model, m, k, n int) Plan {
	return gemmPlanNamed(hw, "gemm", m, k, n)
}

func gemmPlanNamed(hw *sw26010.Model, name string, m, k, n int) Plan {
	if m <= 0 || k <= 0 || n <= 0 {
		return Infeasible(name, "non-positive dimension")
	}
	p := cachedPlan(gemmKey(hw, opGEMMPlan, m, k, n), func() Plan {
		return searchPlanBlocks(hw, m, k, n)
	})
	p.Name = name
	return p
}

// GEMMPlanNoRLC prices the same blocked GEMM with register-level
// communication disabled: at each of the 8 SUMMA steps every CPE must
// DMA the remote A and B tiles from main memory instead of receiving
// them over the row/column buses, multiplying the A/B traffic by the
// mesh dimension. This is the Principle-4 ablation.
func GEMMPlanNoRLC(hw *sw26010.Model, m, k, n int) Plan {
	return cachedPlan(gemmKey(hw, opGEMMNoRLC, m, k, n), func() Plan {
		p := gemmPlanNamed(hw, "gemm-no-rlc", m, k, n)
		if !p.Feasible {
			return p
		}
		bm, bk, bn := p.Block[0], p.Block[1], p.Block[2]
		tm, tk, tn := bm/mesh, bk/mesh, bn/mesh
		nBi := (m + bm - 1) / bm
		nBj := (n + bn - 1) / bn
		nBt := (k + bk - 1) / bk
		// Extra per-step fetches: (mesh-1) remote A tiles and B tiles per
		// CPE per macro-block, straight from DRAM.
		aGet := hw.DMATime(sw26010.DMAGet, int64(tm*tk*4), sw26010.CPEsPerCG, int64(tk*4))
		bGet := hw.DMATime(sw26010.DMAGet, int64(tk*tn*4), sw26010.CPEsPerCG, int64(tn*4))
		extra := float64(float64(nBi*nBj*nBt) * float64(mesh-1) * (aGet + bGet))
		p.DMATime += extra
		p.RLCTime = 0
		p.Time = combine(p.DMATime, p.ComputeTime, 0) + kernelLaunch
		return p
	})
}

// The host reference GEMMs. Each has one portable body here (gemmNNGo,
// gemmTNGo, gemmNTGo), compiled on every GOARCH, and the body it runs
// (gemmNN, gemmTN, gemmNT) comes from gemm_amd64.go on amd64 and from
// gemm_noasm.go elsewhere. On amd64 each GEMM is one call into AVX
// assembly, chosen once at init by a CPUID/XGETBV check; a CPU or OS
// without AVX runs the portable bodies. The two give the same bits:
// VMULPS and VADDPS round every lane exactly as MULSS and ADDSS round a
// scalar, no fused multiply-add is used, and both add each element's
// terms in the order stated below. The one difference is which NaN
// comes out when two NaNs meet in an add; it is a NaN either way.
//
// The portable bodies round every product before adding it
// (float32(x*y)): without the conversion the compiler may fuse the
// multiply-add on targets that have one (arm64 does), and the kernels
// would then compute other bits there than on amd64.

// RefGEMM computes C[m×n] += A[m×k]·B[k×n], row-major: the host
// reference used by the test suite and by the functional layer math
// (the "MPE-only" baseline). Element (i, j) adds A[i,kk]·B[kk,j] for
// kk ascending and skips the terms whose A coefficient is zero, so a
// zero activation costs nothing and an infinite B entry behind it
// yields no NaN.
func RefGEMM(a, b, c []float32, m, k, n int) {
	checkGEMMArgs(a, b, c, m, k, n)
	gemmNN(a, b, c, m, k, n)
}

// RefGEMMTransA computes C[m×n] += Aᵀ·B where A is [k×m] and B is
// [k×n]. Element (i, j) adds A[kk,i]·B[kk,j] for kk ascending,
// skipping zero coefficients, as RefGEMM does.
func RefGEMMTransA(a, b, c []float32, m, k, n int) {
	checkGEMMArgs(a, b, c, m, k, n)
	gemmTN(a, b, c, m, k, n)
}

// RefGEMMTransB computes C[m×n] += A·Bᵀ where A is [m×k] and B is
// [n×k]. Element (i, j) sums s = +0 + A[i,0]·B[j,0] + A[i,1]·B[j,1] + …
// for kk ascending, with no term skipped, and then adds s to C[i,j].
func RefGEMMTransB(a, b, c []float32, m, k, n int) {
	checkGEMMArgs(a, b, c, m, k, n)
	gemmNT(a, b, c, m, k, n)
}

// gemmNNGo is the portable body of RefGEMM and microGEMM: for each row
// of A, one axpy per non-zero coefficient.
func gemmNNGo(a, b, c []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			axpyGo(crow, b[kk*n:(kk+1)*n], av)
		}
	}
}

// gemmTNGo is the portable body of RefGEMMTransA: for each row of A,
// one axpy per non-zero coefficient, into the C row it scales.
func gemmTNGo(a, b, c []float32, m, k, n int) {
	for kk := 0; kk < k; kk++ {
		arow := a[kk*m : (kk+1)*m]
		brow := b[kk*n : (kk+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			axpyGo(c[i*n:(i+1)*n], brow, av)
		}
	}
}

// gemmNTGo is the portable body of RefGEMMTransB. Four output columns
// are produced per sweep of A's row, with one independent accumulator
// each; every accumulator still sums in kk order.
func gemmNTGo(a, b, c []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float32
			for kk, av := range arow {
				s0 += float32(av * b0[kk])
				s1 += float32(av * b1[kk])
				s2 += float32(av * b2[kk])
				s3 += float32(av * b3[kk])
			}
			crow[j] += s0
			crow[j+1] += s1
			crow[j+2] += s2
			crow[j+3] += s3
		}
		for ; j < n; j++ {
			crow[j] += dotGo(arow, b[j*k:(j+1)*k])
		}
	}
}

// axpyGo computes crow[j] += av·brow[j] with a 4-wide unroll. crow and
// brow must have equal length; the re-slice pins that for the bounds-
// check eliminator.
func axpyGo(crow, brow []float32, av float32) {
	n := len(crow)
	brow = brow[:n]
	jj := 0
	for ; jj+4 <= n; jj += 4 {
		c := crow[jj : jj+4 : jj+4]
		b4 := brow[jj : jj+4 : jj+4]
		c[0] += float32(av * b4[0])
		c[1] += float32(av * b4[1])
		c[2] += float32(av * b4[2])
		c[3] += float32(av * b4[3])
	}
	for ; jj < n; jj++ {
		crow[jj] += float32(av * brow[jj])
	}
}

// dotGo returns +0 + a[0]·b[0] + a[1]·b[1] + …, rounding each product
// and each sum, in index order; len(b) >= len(a).
func dotGo(a, b []float32) float32 {
	b = b[:len(a)]
	var s float32
	for kk, av := range a {
		s += float32(av * b[kk])
	}
	return s
}
