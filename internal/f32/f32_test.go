package f32

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The primitives must give the bits of their portable Go loops on every
// platform: f32_amd64.s computes four lanes at a time and the Go loops
// one element at a time, and the collectives' goldens and the layers'
// gradients downstream rest on their agreeing.

var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(0xffc00001), // a negative NaN with a payload
	math.Float32frombits(1), -math.Float32frombits(0x007fffff), 3e-39, -1e-44,
}

// value draws mostly normal values of either sign, a quarter of them
// from specials.
func value(rng *rand.Rand) float32 {
	if rng.Intn(4) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return float32(rng.NormFloat64() * 4)
}

// operand returns a length-n slice at an odd offset into a larger
// buffer, with cap > len. The elements around it hold a marker NaN, so
// a body that read or wrote beyond its operand is caught by the
// comparison or by untouched.
func operand(rng *rand.Rand, n int) []float32 {
	off := 1 + 2*rng.Intn(4)
	buf := make([]float32, off+n+5)
	for i := range buf {
		buf[i] = marker
	}
	s := buf[off : off+n : len(buf)]
	for i := range s {
		s[i] = value(rng)
	}
	return s
}

var marker = math.Float32frombits(0x7fa5a5a5)

// untouched reports whether the padding of an operand built by operand
// still holds the marker.
func untouched(s []float32) bool {
	for _, v := range s[len(s):cap(s)] {
		if math.Float32bits(v) != 0x7fa5a5a5 {
			return false
		}
	}
	return true
}

func clone(s []float32) []float32 {
	c := make([]float32, len(s), cap(s))
	copy(c[:cap(s)], s[:cap(s)])
	return c
}

// sameBits compares bit for bit, except that any NaN equals any NaN:
// when both operands of an x86 add are NaN the result is the first one,
// and the compiler picks the order in the Go loop.
func sameBits(x, y float32) bool {
	if x != x && y != y {
		return true
	}
	return math.Float32bits(x) == math.Float32bits(y)
}

func compare(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %#08x (%g), Go loop %#08x (%g)",
				what, i, math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
	if !untouched(got) {
		t.Fatalf("%s: wrote past the operand", what)
	}
}

var slopes = []float32{0, 0.01, -0.5}

func TestPrimitivesMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for rep := 0; rep < 8; rep++ {
		for n := 0; n <= 67; n++ {
			a, b := operand(rng, n), operand(rng, n)
			want, got := operand(rng, n), operand(rng, n)
			addGo(want, a, b)
			Add(got, a, b)
			compare(t, fmt.Sprintf("Add n=%d", n), got, want)

			want, got = clone(a), clone(a)
			addGo(want, want, b)
			Add(got, got, b)
			compare(t, fmt.Sprintf("in-place Add n=%d", n), got, want)

			for _, s := range slopes {
				in := operand(rng, n)
				want, got := operand(rng, n), operand(rng, n)
				reluGo(want, in, s)
				ReLU(got, in, s)
				compare(t, fmt.Sprintf("ReLU n=%d s=%g", n, s), got, want)

				want, got = clone(in), clone(in)
				reluGo(want, want, s)
				ReLU(got, got, s)
				compare(t, fmt.Sprintf("in-place ReLU n=%d s=%g", n, s), got, want)

				dy, dx := operand(rng, n), operand(rng, n)
				want, got = clone(dx), clone(dx)
				reluGradGo(want, in, dy, s)
				ReLUGrad(got, in, dy, s)
				compare(t, fmt.Sprintf("ReLUGrad n=%d s=%g", n, s), got, want)
			}
		}
	}
}

// SGD and Scale run over whole parameters, so they are checked on
// lengths well past the unrolled blocks, with every scalar drawn from
// value: subnormals, ±0, ±Inf and NaN included.
func TestSGDAndScaleMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for rep := 0; rep < 3; rep++ {
		for n := 0; n <= 300; n++ {
			src, s := operand(rng, n), value(rng)
			want, got := operand(rng, n), operand(rng, n)
			scaleGo(want, src, s)
			Scale(got, src, s)
			compare(t, fmt.Sprintf("Scale n=%d s=%g", n, s), got, want)

			want, got = clone(src), clone(src)
			scaleGo(want, want, s)
			Scale(got, got, s)
			compare(t, fmt.Sprintf("in-place Scale n=%d s=%g", n, s), got, want)

			w, h, g := operand(rng, n), operand(rng, n), operand(rng, n)
			decay, lr, mom := value(rng), value(rng), value(rng)
			wantW, wantH, gotW, gotH := clone(w), clone(h), clone(w), clone(h)
			gIn := clone(g)
			sgdGo(wantW, wantH, g, decay, lr, mom)
			SGD(gotW, gotH, g, decay, lr, mom)
			what := fmt.Sprintf("SGD n=%d decay=%g lr=%g mom=%g", n, decay, lr, mom)
			compare(t, what+" w", gotW, wantW)
			compare(t, what+" h", gotH, wantH)
			if !BitsEqual(g[:cap(g)], gIn[:cap(g)]) {
				t.Fatalf("%s: wrote the gradient", what)
			}
		}
	}
}

// The Go loops themselves are the layer's old branches: v where 0 < v,
// s·v elsewhere, NaN and both zeros included.
func TestReLUSelectsAsTheBranch(t *testing.T) {
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	in := []float32{2, -2, 0, negZero, nan, float32(math.Inf(1)), float32(math.Inf(-1))}
	const s = -0.5
	want := []float32{2, 1, negZero, 0, nan, float32(math.Inf(1)), float32(math.Inf(1))}
	for _, f := range []struct {
		name string
		f    func(out, in []float32, s float32)
	}{{"ReLU", ReLU}, {"reluGo", reluGo}} {
		out := make([]float32, len(in))
		f.f(out, in, s)
		for i := range want {
			if !sameBits(out[i], want[i]) {
				t.Errorf("%s(%g) = %g (%#08x), want %g (%#08x)", f.name, in[i], out[i], math.Float32bits(out[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
}

func TestShortOperandPanicsInGo(t *testing.T) {
	long, short := make([]float32, 9), make([]float32, 8)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Add a", func() { Add(long, short, long) }},
		{"Add b", func() { Add(long, long, short) }},
		{"ReLU", func() { ReLU(long, short, 0) }},
		{"ReLUGrad in", func() { ReLUGrad(long, short, long, 0) }},
		{"ReLUGrad dy", func() { ReLUGrad(long, long, short, 0) }},
		{"Scale", func() { Scale(long, short, 2) }},
		{"SGD h", func() { SGD(long, short, long, 0, 1, 0) }},
		{"SGD g", func() { SGD(long, long, short, 0, 1, 0) }},
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			tc.f()
			return ""
		}()
		if !strings.Contains(msg, "slice bounds out of range") {
			t.Errorf("%s with a short operand panicked with %q, want a slice bounds error", tc.name, msg)
		}
	}
}

func TestBitsEqual(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan, otherNaN := float32(math.NaN()), math.Float32frombits(0x7fc00001)
	for _, tc := range []struct {
		a, b []float32
		want bool
	}{
		{nil, nil, true},
		{nil, []float32{}, true},
		{[]float32{1, 2, 3}, []float32{1, 2, 3}, true},
		{[]float32{1, 2, 3}, []float32{1, 2}, false},
		{[]float32{1, 2, 3}, []float32{1, 2, math.Nextafter32(3, 4)}, false},
		{[]float32{0}, []float32{negZero}, false},
		{[]float32{nan}, []float32{nan}, true},
		{[]float32{nan}, []float32{otherNaN}, false},
	} {
		if got := BitsEqual(tc.a, tc.b); got != tc.want {
			t.Errorf("BitsEqual(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestPrimitivesAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b, c := operand(rng, 61), operand(rng, 61), operand(rng, 61)
	for _, f := range []struct {
		name string
		f    func()
	}{
		{"Add", func() { Add(a, b, c) }},
		{"ReLU", func() { ReLU(a, b, 0.01) }},
		{"ReLUGrad", func() { ReLUGrad(a, b, c, 0.01) }},
		{"Scale", func() { Scale(a, b, 0.5) }},
		{"SGD", func() { SGD(a, b, c, 0.01, 0.1, 0.9) }},
		{"BitsEqual", func() { BitsEqual(a, b) }},
	} {
		if allocs := testing.AllocsPerRun(20, f.f); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", f.name, allocs)
		}
	}
}
