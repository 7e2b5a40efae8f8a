package swdnn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"swcaffe/internal/sw26010"
)

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := float64(a[i] - b[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

func TestGEMMRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cg := sw26010.NewCoreGroup(nil)
	cases := []struct{ m, k, n int }{
		{8, 8, 8}, {16, 8, 24}, {32, 32, 32}, {64, 16, 8},
		{24, 40, 16}, {8, 64, 8}, {48, 48, 48},
	}
	for _, c := range cases {
		a := randSlice(rng, c.m*c.k)
		b := randSlice(rng, c.k*c.n)
		csim := randSlice(rng, c.m*c.n)
		cref := append([]float32(nil), csim...)

		simTime := GEMMRun(cg, a, b, csim, c.m, c.k, c.n)
		RefGEMM(a, b, cref, c.m, c.k, c.n)

		if i := firstBitDiff(csim, cref); i >= 0 {
			t.Errorf("GEMM %dx%dx%d: C[%d] = %v, RefGEMM %v", c.m, c.k, c.n, i, csim[i], cref[i])
		}
		if simTime <= 0 {
			t.Errorf("GEMM %dx%dx%d: non-positive simulated time %g", c.m, c.k, c.n, simTime)
		}
	}
}

// firstBitDiff returns the first index at which a and b hold different
// bits, or -1.
func firstBitDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// GEMMRun pads ragged operands to the plan's block multiples; C must
// still be RefGEMM's bits (each element the ascending-k sum), including
// shapes that cross several macro-blocks in every dimension.
func TestGEMMRunNonAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cg := sw26010.NewCoreGroup(nil)
	defer cg.Close()
	for _, c := range []struct{ m, k, n int }{
		{5, 7, 3}, {13, 9, 21}, {1, 1, 1}, {17, 32, 5},
		{60, 52, 44}, {8, 72, 256}, {100, 30, 70}, {199, 297, 201}, {131, 263, 7},
	} {
		a := randSlice(rng, c.m*c.k)
		b := randSlice(rng, c.k*c.n)
		cs := randSlice(rng, c.m*c.n)
		cr := append([]float32(nil), cs...)
		GEMMRun(cg, a, b, cs, c.m, c.k, c.n)
		RefGEMM(a, b, cr, c.m, c.k, c.n)
		if i := firstBitDiff(cs, cr); i >= 0 {
			t.Errorf("GEMM %dx%dx%d (block %v): C[%d] = %v, RefGEMM %v",
				c.m, c.k, c.n, GEMMPlan(cg.Model, c.m, c.k, c.n).Block, i, cs[i], cr[i])
		}
	}
}

func TestGEMMProperty(t *testing.T) {
	cg := sw26010.NewCoreGroup(nil)
	defer cg.Close()
	rng := rand.New(rand.NewSource(3))
	f := func(mSeed, kSeed, nSeed uint16) bool {
		m := int(mSeed)%200 + 1
		k := int(kSeed)%300 + 1
		n := int(nSeed)%200 + 1
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		cs := make([]float32, m*n)
		cr := make([]float32, m*n)
		GEMMRun(cg, a, b, cs, m, k, n)
		RefGEMM(a, b, cr, m, k, n)
		return firstBitDiff(cs, cr) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}
