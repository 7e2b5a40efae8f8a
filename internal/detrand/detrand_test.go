package detrand

import (
	"math"
	"testing"
)

// TestCursorNamesTheStream pins the package's reason to exist: the
// k-th draw is a pure function of (seed, k), so two streams at the
// same cursor agree forever, and Mix reproduces any draw in O(1).
func TestCursorNamesTheStream(t *testing.T) {
	a, b := New(42), New(42)
	for i := 1; i <= 100; i++ {
		av, bv := a.Uint64(), b.Uint64()
		if av != bv {
			t.Fatalf("draw %d: streams diverge: %x vs %x", i, av, bv)
		}
		if want := Mix(42, uint64(i)); av != want {
			t.Fatalf("draw %d: Mix disagrees with stream: %x vs %x", i, av, want)
		}
	}
	if New(42).Uint64() == New(43).Uint64() {
		t.Fatal("distinct seeds produced the same first draw")
	}
}

// TestNormFloat64FixedDrawCount verifies the no-rejection contract:
// every normal draw consumes exactly two uniforms, so cursor
// arithmetic stays predictable.
func TestNormFloat64FixedDrawCount(t *testing.T) {
	r := New(7)
	for i := 0; i < 1000; i++ {
		r.NormFloat64()
	}
	// Replaying 2000 uniforms from a fresh stream must land the
	// cursors at the same next value.
	s := New(7)
	for i := 0; i < 2000; i++ {
		s.Uint64()
	}
	if r.Uint64() != s.Uint64() {
		t.Fatal("NormFloat64 did not consume exactly two draws per call")
	}
}

// TestDistributions sanity-checks moments loosely: detrand feeds
// weight init and synthetic data, so gross skew would silently warp
// every experiment.
func TestDistributions(t *testing.T) {
	r := New(1)
	const n = 200000
	var sumU, sumN, sumN2 float64
	for i := 0; i < n; i++ {
		sumU += r.Float64()
		x := r.NormFloat64()
		sumN += x
		sumN2 += x * x
	}
	if m := sumU / n; math.Abs(m-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", m)
	}
	if m := sumN / n; math.Abs(m) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", m)
	}
	if v := sumN2 / n; math.Abs(v-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", v)
	}
}

// TestIntnRange checks that Intn stays in [0, n).
func TestIntnRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

// TestFloat32Range pins the [0,1) contract for the dropout mask path.
func TestFloat32Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		if v := r.Float32(); v < 0 || v >= 1 {
			t.Fatalf("Float32 = %v out of [0,1)", v)
		}
	}
}
