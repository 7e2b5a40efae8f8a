package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewShapesAndIndexing(t *testing.T) {
	tt := New(2, 3, 4, 5)
	if tt.Len() != 120 {
		t.Fatalf("Len = %d, want 120", tt.Len())
	}
	if tt.Bytes() != 480 {
		t.Fatalf("Bytes = %d, want 480", tt.Bytes())
	}
	// Every logical index maps to a unique linear offset.
	seen := make(map[int]bool)
	for n := 0; n < 2; n++ {
		for c := 0; c < 3; c++ {
			for h := 0; h < 4; h++ {
				for w := 0; w < 5; w++ {
					idx := tt.Index(n, c, h, w)
					if idx < 0 || idx >= tt.Len() {
						t.Fatalf("index out of range: %d", idx)
					}
					if seen[idx] {
						t.Fatalf("duplicate index %d", idx)
					}
					seen[idx] = true
				}
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	tt := New(2, 3, 4, 5)
	tt.Set(1, 2, 3, 4, 42)
	if got := tt.At(1, 2, 3, 4); got != 42 {
		t.Fatalf("At = %g, want 42", got)
	}
}

func TestAXPYDotSum(t *testing.T) {
	a := New(1, 4, 1, 1)
	b := New(1, 4, 1, 1)
	copy(a.Data, []float32{1, 2, 3, 4})
	copy(b.Data, []float32{10, 20, 30, 40})
	a.AXPY(0.5, b)
	want := []float32{6, 12, 18, 24}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("AXPY[%d] = %g, want %g", i, a.Data[i], want[i])
		}
	}
	if got := b.Dot(b); got != 10*10+20*20+30*30+40*40 {
		t.Fatalf("Dot = %g", got)
	}
	if got := b.Sum(); got != 100 {
		t.Fatalf("Sum = %g", got)
	}
	if got := b.SumSquares(); got != 3000 {
		t.Fatalf("SumSquares = %g", got)
	}
	if got := b.MaxAbs(); got != 40 {
		t.Fatalf("MaxAbs = %g", got)
	}
}

func TestFillers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tt := New(1, 1000, 1, 1)

	tt.FillXavier(rng, 300)
	bound := math.Sqrt(3.0 / 300)
	for _, v := range tt.Data {
		if math.Abs(float64(v)) > bound {
			t.Fatalf("xavier sample %g outside [-%g, %g]", v, bound, bound)
		}
	}

	tt.FillMSRA(rng, 50)
	var mean, sq float64
	for _, v := range tt.Data {
		mean += float64(v)
		sq += float64(v) * float64(v)
	}
	mean /= float64(tt.Len())
	std := math.Sqrt(sq/float64(tt.Len()) - mean*mean)
	wantStd := math.Sqrt(2.0 / 50)
	if math.Abs(std-wantStd)/wantStd > 0.15 {
		t.Fatalf("msra std %g, want ~%g", std, wantStd)
	}

	tt.Fill(3)
	if tt.Sum() != 3000 {
		t.Fatal("Fill failed")
	}
	tt.Zero()
	if tt.Sum() != 0 {
		t.Fatal("Zero failed")
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := New(2, 2, 2, 2)
	a.FillGaussian(rng, 0, 1)
	c := a.Clone()
	c.Data[0] = 99
	if a.Data[0] == 99 {
		t.Fatal("Clone must deep-copy")
	}
	b := New(2, 2, 2, 2)
	b.CopyFrom(a)
	if !AllClose(a, b, 0, 0) {
		t.Fatal("CopyFrom mismatch")
	}
}

func TestAllCloseAndMaxDiff(t *testing.T) {
	a := New(1, 3, 1, 1)
	b := New(1, 3, 1, 1)
	copy(a.Data, []float32{1, 2, 3})
	copy(b.Data, []float32{1, 2, 3.01})
	if AllClose(a, b, 0, 1e-3) {
		t.Fatal("AllClose should fail at atol 1e-3")
	}
	if !AllClose(a, b, 0, 0.02) {
		t.Fatal("AllClose should pass at atol 0.02")
	}
	if d := MaxDiff(a, b); math.Abs(d-0.01) > 1e-5 {
		t.Fatalf("MaxDiff = %g", d)
	}
	b.Data[0] = float32(math.NaN())
	if AllClose(a, b, 1, 1) {
		t.Fatal("AllClose must reject NaN")
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { New(-1, 1, 1, 1) },
		func() { a := New(1, 2, 1, 1); b := New(1, 3, 1, 1); a.AXPY(1, b) },
		func() { a := New(1, 2, 1, 1); b := New(1, 3, 1, 1); a.CopyFrom(b) },
		func() { a := New(1, 2, 1, 1); a.FillXavier(rand.New(rand.NewSource(1)), 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
