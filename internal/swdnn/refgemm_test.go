package swdnn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"swcaffe/internal/sw26010"
)

// The reference GEMMs must give the bits of the naive triple loops
// below on every platform: gemm_amd64.s computes eight lanes at a time,
// gemmNNGo/gemmTNGo/gemmNTGo one element at a time, and the golden
// files downstream of core's layers rest on their agreeing. Each
// dispatched form is checked twice, as init chose it (AVX where the
// CPU has it) and forced to the portable body.

type gemmOp int

const (
	opNN gemmOp = iota // C += A·B,  A [m×k], B [k×n]
	opTN               // C += Aᵀ·B, A [k×m], B [k×n]
	opNT               // C += A·Bᵀ, A [m×k], B [n×k]
)

// naiveGEMM is the specification: NN and TN add each element's terms in
// ascending kk and skip zero coefficients; NT sums every term into a +0
// accumulator in ascending kk and then adds it to C. Products are
// rounded explicitly so that no target fuses them.
func naiveGEMM(op gemmOp, a, b, c []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if op == opNT {
				var s float32
				for kk := 0; kk < k; kk++ {
					s += float32(a[i*k+kk] * b[j*k+kk])
				}
				c[i*n+j] += s
				continue
			}
			s := c[i*n+j]
			for kk := 0; kk < k; kk++ {
				av := a[i*k+kk]
				if op == opTN {
					av = a[kk*m+i]
				}
				if av != 0 {
					s += float32(av * b[kk*n+j])
				}
			}
			c[i*n+j] = s
		}
	}
}

type gemmFunc func(a, b, c []float32, m, k, n int)

func microGEMMForm(a, b, c []float32, m, k, n int) { microGEMM(c, a, b, m, k, n) }

// goBody runs f through the dispatch forced to the portable bodies.
func goBody(f gemmFunc) gemmFunc {
	return func(a, b, c []float32, m, k, n int) { withGoGEMMs(func() { f(a, b, c, m, k, n) }) }
}

var gemmForms = []struct {
	name string
	op   gemmOp
	f    gemmFunc
}{
	{"RefGEMM", opNN, RefGEMM},
	{"RefGEMM/go", opNN, goBody(RefGEMM)},
	{"microGEMM", opNN, microGEMMForm},
	{"microGEMM/go", opNN, goBody(microGEMMForm)},
	{"RefGEMMTransA", opTN, RefGEMMTransA},
	{"RefGEMMTransA/go", opTN, goBody(RefGEMMTransA)},
	{"RefGEMMTransB", opNT, RefGEMMTransB},
	{"RefGEMMTransB/go", opNT, goBody(RefGEMMTransB)},
}

// gemmInputs draws one operand class per case: a zero fraction (signed
// zeros both ways), and in every other case a sprinkling of ±Inf, NaN
// and subnormals among normally distributed values.
type gemmInputs struct {
	rng      *rand.Rand
	zeroFrac float64
	specials bool
}

var gemmSpecials = []float32{
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.Float32frombits(1), -math.Float32frombits(0x007fffff), 3e-39, -1e-44,
	float32(math.Copysign(0, -1)),
}

func (g *gemmInputs) value() float32 {
	switch r := g.rng.Float64(); {
	case r < g.zeroFrac:
		if g.rng.Intn(2) == 0 {
			return float32(math.Copysign(0, -1))
		}
		return 0
	case g.specials && r < g.zeroFrac+0.03:
		return gemmSpecials[g.rng.Intn(len(gemmSpecials))]
	}
	return float32(g.rng.NormFloat64() * 4)
}

// operand returns a length-n slice at an odd offset into a larger
// buffer, with cap > len. The elements past len hold NaN, so a kernel
// that read beyond its operand would be caught by the comparison; tail
// receives the same padding for a later untouched check.
func (g *gemmInputs) operand(n int) (s, tail []float32) {
	off := 1 + 2*g.rng.Intn(4)
	buf := make([]float32, off+n+5)
	for i := range buf {
		buf[i] = float32(math.NaN())
	}
	s = buf[off : off+n : len(buf)]
	for i := range s {
		s[i] = g.value()
	}
	return s, buf[off+n:]
}

// sameBits compares two results bit for bit, except that any NaN equals
// any NaN. When both operands of an x86 add are NaN, the result is the
// first one, and the compiler chooses the order: for the A row
// (0, 1, …) against the B row (+Inf, NaN, …), where 0·Inf makes the
// negative default NaN and 1·NaN keeps the positive one, gemmNTGo
// returns 0xffc00000 built normally and 0x7fc00000 under -race.
func sameBits(x, y float32) bool {
	if x != x && y != y {
		return true
	}
	return math.Float32bits(x) == math.Float32bits(y)
}

// gemmDims returns case c's dimensions: every residue mod 8 of m, k and
// n (and so mod 4) appears with every other over 512 cases, each
// dimension in [1, 70].
func gemmDims(rng *rand.Rand, c int) (m, k, n int) {
	dim := func(r int) int {
		x := 1 + r + 8*rng.Intn(9)
		if x > 70 {
			x -= 8
		}
		return x
	}
	return dim(c % 8), dim(c / 8 % 8), dim(c / 64 % 8)
}

// columnBlocks names the column blocks the NN/TN assembly walks for a
// row of n: how many of 32, 16 and 8, and whether a masked tail follows.
func columnBlocks(n int) [4]int {
	return [4]int{n / 32, n % 32 / 16, n % 16 / 8, min(n%8, 1)}
}

func TestRefGEMMsMatchNaiveLoops(t *testing.T) {
	if !useAVX {
		t.Log("the AVX bodies are not in use here: every form runs a portable body")
	}
	rng := rand.New(rand.NewSource(27))
	cases := 512
	if testing.Short() {
		cases = 64
	}
	blocks := map[[4]int]bool{}
	for c := 0; c < cases; c++ {
		m, k, n := gemmDims(rng, c)
		blocks[columnBlocks(n)] = true
		g := &gemmInputs{rng: rng, zeroFrac: float64(c%10) / 10, specials: c%2 == 1}
		a, aTail := g.operand(m * k)
		b, bTail := g.operand(k * n)
		c0, _ := g.operand(m * n)
		for _, op := range []gemmOp{opNN, opTN, opNT} {
			want := append([]float32(nil), c0...)
			naiveGEMM(op, a, b, want, m, k, n)
			for _, form := range gemmForms {
				if form.op != op {
					continue
				}
				got, gotTail := g.operand(m * n)
				copy(got, c0)
				form.f(a, b, got, m, k, n)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("case %d %s m=%d k=%d n=%d: c[%d] = %#08x (%g), naive loop %#08x (%g)",
							c, form.name, m, k, n, i, math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
					}
				}
				for _, tail := range [][]float32{aTail, bTail, gotTail} {
					for _, v := range tail {
						if v == v {
							t.Fatalf("case %d %s: wrote past an operand", c, form.name)
						}
					}
				}
			}
		}
	}
	// Every mix of column blocks that some n in [1, 70] makes must have
	// been drawn.
	for n := 1; n <= 70 && !testing.Short(); n++ {
		if !blocks[columnBlocks(n)] {
			t.Errorf("no case has the column blocks of n = %d (%v)", n, columnBlocks(n))
		}
	}
}

func TestWarmRefGEMMsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const m, k, n = 13, 29, 37
	g := &gemmInputs{rng: rng, zeroFrac: 0.5}
	a, _ := g.operand(m * k)
	b, _ := g.operand(k * n)
	c, _ := g.operand(m * n)
	for _, form := range gemmForms {
		if allocs := testing.AllocsPerRun(20, func() { form.f(a, b, c, m, k, n) }); allocs != 0 {
			t.Errorf("%s: %v allocations per warm call, want 0", form.name, allocs)
		}
	}
}

func TestRefGEMMsCheckArguments(t *testing.T) {
	ok := make([]float32, 6)
	short := make([]float32, 5)
	for _, f := range []struct {
		name string
		f    func(a, b, c []float32, m, k, n int)
	}{{"RefGEMM", RefGEMM}, {"RefGEMMTransA", RefGEMMTransA}, {"RefGEMMTransB", RefGEMMTransB}} {
		for _, tc := range []struct {
			a, b, c []float32
			m, k, n int
			msg     string
		}{
			{ok, ok, ok, 2, 0, 3, "must be positive"},
			{ok, ok, ok, -1, 2, 3, "must be positive"},
			{short, ok, ok, 2, 3, 2, "too short"}, // A: 2×3 (TransA: 3×2)
			{ok, short, ok, 2, 3, 2, "too short"}, // B: 3×2 (TransB: 2×3)
			{ok, ok, short, 3, 2, 2, "too short"}, // C: 3×2
		} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				f.f(tc.a, tc.b, tc.c, tc.m, tc.k, tc.n)
				return ""
			}()
			if !strings.HasPrefix(msg, "swdnn: GEMM") || !strings.Contains(msg, tc.msg) {
				t.Errorf("%s(len %d, %d, %d; %d×%d×%d) panicked with %q, want the swdnn %q message",
					f.name, len(tc.a), len(tc.b), len(tc.c), tc.m, tc.k, tc.n, msg, tc.msg)
			}
		}
	}
}

func TestStagingPoolAllocatesNothingWarm(t *testing.T) {
	putStaging(getStaging(1000))
	if allocs := testing.AllocsPerRun(100, func() { putStaging(getStaging(1000)) }); allocs != 0 {
		t.Errorf("get+put: %v allocations, want 0", allocs)
	}
	// A warm ragged GEMMRun stages A, B and C through the free list; what it
	// still allocates is the mesh run's own bookkeeping, the same count
	// as an aligned one.
	cg := sw26010.NewCoreGroup(nil)
	defer cg.Close()
	rng := rand.New(rand.NewSource(9))
	warm := func(m, k, n int) float64 {
		a, b, c := randSlice(rng, m*k), randSlice(rng, k*n), make([]float32, m*n)
		GEMMRun(cg, a, b, c, m, k, n)
		return testing.AllocsPerRun(20, func() { GEMMRun(cg, a, b, c, m, k, n) })
	}
	if ragged, aligned := warm(60, 52, 44), warm(64, 64, 64); ragged != aligned {
		t.Errorf("warm ragged 60×52×44 GEMMRun: %v allocations, aligned 64×64×64: %v; staging should add none", ragged, aligned)
	}
}

// BenchmarkRefGEMMs times the reference GEMMs at the shapes the
// workloads run: the mesh's per-step tiles (microGEMM), the trainer's
// inner-product layer at batch 2 and fc1's at batch 8, each in the
// form its forward (NT), data gradient (NN) and weight gradient (TN)
// use. Operands are normally distributed, with no zeros to skip.
func BenchmarkRefGEMMs(b *testing.B) {
	for _, bc := range []struct {
		name    string
		op      gemmOp
		m, k, n int
		f       gemmFunc
	}{
		{"micro/16x16x16", opNN, 16, 16, 16, microGEMMForm},
		{"micro/8x1x6", opNN, 8, 1, 6, microGEMMForm},
		{"micro/1x1x32", opNN, 1, 1, 32, microGEMMForm},
		{"NN/2x64x512", opNN, 2, 64, 512, RefGEMM},
		{"TN/64x2x512", opTN, 64, 2, 512, RefGEMMTransA},
		{"NT/2x512x64", opNT, 2, 512, 64, RefGEMMTransB},
		{"NN/8x64x512", opNN, 8, 64, 512, RefGEMM},
		{"TN/64x8x512", opTN, 64, 8, 512, RefGEMMTransA},
		{"NT/8x512x64", opNT, 8, 512, 64, RefGEMMTransB},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, y, c := randSlice(rng, bc.m*bc.k), randSlice(rng, bc.k*bc.n), randSlice(rng, bc.m*bc.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.f(x, y, c, bc.m, bc.k, bc.n)
			}
		})
	}
}
