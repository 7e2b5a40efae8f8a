package swdnn

import (
	"math"
	"math/rand"
	"testing"

	"swcaffe/internal/sw26010"
)

func TestSumRunMatchesAndBeatsMPE(t *testing.T) {
	hw := sw26010.Default()
	cg := sw26010.NewCoreGroup(hw)
	rng := rand.New(rand.NewSource(33))
	// Gradient-scale payload: the CPE path amortizes its descriptor
	// latency only on large arrays (for tiny ones the MPE wins, which
	// is why swCaffe packs gradients before summing — Sec. V-A).
	const n = 1 << 20
	acc := randSlice(rng, n)
	addend := randSlice(rng, n)
	want := make([]float32, n)
	for i := range want {
		want[i] = acc[i] + addend[i]
	}
	simT := SumRun(cg, acc, addend)
	if d := maxAbsDiff(acc, want); d != 0 {
		t.Fatalf("mesh sum differs by %g", d)
	}
	// Sec. V-A: the CPE-cluster summation beats the MPE path.
	if mpe := MPESumTime(hw, n); simT >= mpe {
		t.Fatalf("CPE sum (%g) should beat MPE sum (%g)", simT, mpe)
	}
}

func TestSumRunOddLengths(t *testing.T) {
	cg := sw26010.NewCoreGroup(nil)
	for _, n := range []int{1, 1023, 1025, 4097} {
		acc := make([]float32, n)
		addend := make([]float32, n)
		for i := range acc {
			acc[i] = 1
			addend[i] = 2
		}
		SumRun(cg, acc, addend)
		for i := range acc {
			if acc[i] != 3 {
				t.Fatalf("n=%d: acc[%d] = %g", n, i, acc[i])
			}
		}
	}
}

// TestSumRunBitsMatchScalarLoop: the packed add inside SumRun gives
// the scalar loop's bits at ragged lengths (inside one chunk, across
// chunk edges, with odd tails) over ±0, ±Inf, NaN, subnormals and
// overflowing sums. A NaN result is compared as a class: which of two
// NaNs an add returns is not part of the contract.
func TestSumRunBitsMatchScalarLoop(t *testing.T) {
	cg := sw26010.NewCoreGroup(nil)
	rng := rand.New(rand.NewSource(34))
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32,
	}
	value := func() float32 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return float32(rng.NormFloat64())
	}
	for _, n := range []int{1, 3, 7, 1023, 1024, 1025, 4097, 64*1024 + 5} {
		acc, addend, want := make([]float32, n), make([]float32, n), make([]float32, n)
		for i := range acc {
			acc[i], addend[i] = value(), value()
			want[i] = acc[i] + addend[i]
		}
		SumRun(cg, acc, addend)
		for i, got := range acc {
			if got != got && want[i] != want[i] {
				continue
			}
			if math.Float32bits(got) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: acc[%d] = %g (%#08x), want %g (%#08x)",
					n, i, got, math.Float32bits(got), want[i], math.Float32bits(want[i]))
			}
		}
	}
}
