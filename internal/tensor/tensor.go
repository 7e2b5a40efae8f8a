// Package tensor provides the 4-D dense tensors used throughout swCaffe.
//
// Caffe blobs are 4-dimensional (N, C, H, W): batch, channel, height,
// width, stored row-major with width innermost. The paper's implicit-
// GEMM (H, W, C, N) layout, RCNB, is priced by the swdnn planner but
// never materialized: every tensor a program builds is NCHW.
package tensor

import (
	"fmt"
	"math"

	"swcaffe/internal/f32"
)

// Rand is the randomness source the Fill* initializers draw from.
// *detrand.RNG satisfies it (the repo's counted splitmix64 stream —
// the rawrand contract's blessed source), as does *math/rand.Rand in
// tests; tensor itself depends on neither.
type Rand interface {
	Float64() float64
	NormFloat64() float64
}

// Tensor is a dense 4-D array of float32 in (N, C, H, W) order.
type Tensor struct {
	N, C, H, W int
	Data       []float32
}

// New allocates a zero-filled tensor of the given shape.
func New(n, c, h, w int) *Tensor {
	if n < 0 || c < 0 || h < 0 || w < 0 {
		panic(fmt.Sprintf("tensor: negative dimension (%d,%d,%d,%d)", n, c, h, w))
	}
	return &Tensor{N: n, C: c, H: h, W: w, Data: make([]float32, n*c*h*w)}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return t.N * t.C * t.H * t.W }

// Bytes returns the storage footprint in bytes (float32 elements).
func (t *Tensor) Bytes() int64 { return int64(t.Len()) * 4 }

// Shape returns the logical shape as a 4-element array (N, C, H, W).
func (t *Tensor) Shape() [4]int { return [4]int{t.N, t.C, t.H, t.W} }

// SameShape reports whether two tensors have identical logical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	return t.N == o.N && t.C == o.C && t.H == o.H && t.W == o.W
}

// At returns the element (n, c, h, w).
func (t *Tensor) At(n, c, h, w int) float32 { return t.Data[((n*t.C+c)*t.H+h)*t.W+w] }

// CopyFrom copies o's data into t. Shapes must match.
func (t *Tensor) CopyFrom(o *Tensor) {
	if !t.SameShape(o) {
		panic("tensor: CopyFrom shape mismatch")
	}
	copy(t.Data, o.Data)
}

// Zero fills the tensor with zeros.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// FillGaussian fills with N(mean, std) samples from rng. Here and
// below, a product that feeds a sum is rounded explicitly
// (float64(x*y)): arm64 would otherwise fuse the two into one
// multiply-add and compute other bits than amd64.
func (t *Tensor) FillGaussian(rng Rand, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(float64(rng.NormFloat64()*std) + mean)
	}
}

// FillUniform fills with U[lo, hi) samples from rng.
func (t *Tensor) FillUniform(rng Rand, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = float32(lo + float64(rng.Float64()*(hi-lo)))
	}
}

// FillXavier applies the Caffe "xavier" filler: U[-a, a] with
// a = sqrt(3 / fanIn).
func (t *Tensor) FillXavier(rng Rand, fanIn int) {
	if fanIn <= 0 {
		panic("tensor: FillXavier fanIn must be positive")
	}
	a := math.Sqrt(3.0 / float64(fanIn))
	t.FillUniform(rng, -a, a)
}

// FillMSRA applies the Caffe "msra" filler: N(0, sqrt(2 / fanIn)).
func (t *Tensor) FillMSRA(rng Rand, fanIn int) {
	if fanIn <= 0 {
		panic("tensor: FillMSRA fanIn must be positive")
	}
	t.FillGaussian(rng, 0, math.Sqrt(2.0/float64(fanIn)))
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) { f32.Scale(t.Data, t.Data, s) }

// AXPY computes t += alpha*o elementwise. Lengths must match.
func (t *Tensor) AXPY(alpha float32, o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: AXPY length mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += float32(alpha * v)
	}
}

// Dot returns the flat inner product of two same-shaped tensors,
// accumulated in float64 for stability.
func (t *Tensor) Dot(o *Tensor) float64 {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i, v := range t.Data {
		s += float64(float64(v) * float64(o.Data[i]))
	}
	return s
}

// SumSquares returns sum(x^2) in float64.
func (t *Tensor) SumSquares() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(float64(v) * float64(v))
	}
	return s
}

// MaxAbs returns max |x|.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(%d,%d,%d,%d)", t.N, t.C, t.H, t.W)
}

// AllClose reports whether every pair of corresponding elements differs
// by at most atol + rtol*|b|.
func AllClose(a, b *Tensor, rtol, atol float64) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		x, y := float64(a.Data[i]), float64(b.Data[i])
		if math.IsNaN(x) || math.IsNaN(y) {
			return false
		}
		if math.Abs(x-y) > atol+float64(rtol*math.Abs(y)) {
			return false
		}
	}
	return true
}

// MaxDiff returns the maximum absolute elementwise difference.
func MaxDiff(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		return math.Inf(1)
	}
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}
