// Package f32 holds the elementwise float32 loops under the training
// step and the collectives: the reduce that lands a received payload,
// the ReLU forward and backward, the scale that averages a reduced
// gradient, the momentum-SGD update and the bitwise replica compare.
//
// Each arithmetic primitive has one portable body here (addGo, reluGo,
// reluGradGo, scaleGo, sgdGo), compiled on every GOARCH. The body it runs comes from
// f32_amd64.s on amd64, where the arithmetic is packed SSE2, and from
// f32_noasm.go elsewhere, where it is the portable body itself. The two
// give the same bits: every lane is one element and sees exactly the
// operations the Go loop applies to it, and ADDPS/MULPS round a lane as
// ADDSS/MULSS round a scalar. The ReLU select is a mask and a blend, so
// it picks the same operand the Go branch picks, for ±0, ±Inf and NaN
// as for any other value. The one difference is which NaN comes out
// when two NaNs meet in an add; it is a NaN either way.
//
// The exported wrappers re-slice every operand to exactly the length
// the assembly reads, so a short operand panics here, in Go, and never
// lets the assembly read or write past a slice. Operands may be the
// same slice (an in-place add or ReLU) but must not otherwise overlap.
package f32

import (
	"bytes"
	"unsafe"
)

// Add sets dst[i] to a[i] + b[i] for i < len(dst). a and b must have
// at least len(dst) elements; a may be dst itself, which makes it the
// in-place dst[i] += b[i].
func Add(dst, a, b []float32) {
	n := len(dst)
	add(dst, a[:n], b[:n])
}

// ReLU sets out[i] to in[i] where 0 < in[i] and to s·in[i] elsewhere
// (NaN included), for i < len(out). in must have at least len(out)
// elements; it may be out itself.
func ReLU(out, in []float32, s float32) { relu(out, in[:len(out)], s) }

// ReLUGrad adds dy[i] to dx[i] where 0 < in[i] and s·dy[i] elsewhere,
// rounding the product before the add, for i < len(dx). in and dy must
// have at least len(dx) elements.
func ReLUGrad(dx, in, dy []float32, s float32) {
	n := len(dx)
	reluGrad(dx, in[:n], dy[:n], s)
}

// Scale sets dst[i] to s·src[i] for i < len(dst). src must have at
// least len(dst) elements; it may be dst itself.
func Scale(dst, src []float32, s float32) { scale(dst, src[:len(dst)], s) }

// SGD is Caffe's momentum-SGD update of the weights w with history h
// and gradient g, for i < len(w):
//
//	g' = g[i] + decay·w[i]; h[i] = mom·h[i] + lr·g'; w[i] −= h[i]
//
// Every product is rounded before the add that consumes it, and g is
// left as it was. h and g must have at least len(w) elements.
func SGD(w, h, g []float32, decay, lr, mom float32) {
	n := len(w)
	sgd(w, h[:n], g[:n], decay, lr, mom)
}

// BitsEqual reports whether a and b have the same length and the same
// bits, element for element: +0 and −0 differ, and so do NaNs with
// different payloads, while one NaN equals itself. It compares the two
// as bytes, which the runtime does many bytes at a time.
func BitsEqual(a, b []float32) bool { return bytes.Equal(asBytes(a), asBytes(b)) }

// asBytes views v's elements as 4·len(v) bytes in memory order.
func asBytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// addGo is Add's portable body; a and b have len(dst) elements.
func addGo(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i, v := range a {
		dst[i] = v + b[i]
	}
}

// reluGo is ReLU's portable body; len(in) == len(out).
func reluGo(out, in []float32, s float32) {
	in = in[:len(out)]
	for i, v := range in {
		if 0 < v {
			out[i] = v
		} else {
			out[i] = float32(s * v)
		}
	}
}

// reluGradGo is ReLUGrad's portable body; in and dy have len(dx)
// elements. The product is rounded explicitly, so that no target fuses
// it into the add.
func reluGradGo(dx, in, dy []float32, s float32) {
	in, dy = in[:len(dx)], dy[:len(dx)]
	for i, v := range in {
		if 0 < v {
			dx[i] += dy[i]
		} else {
			dx[i] += float32(s * dy[i])
		}
	}
}

// scaleGo is Scale's portable body; len(src) == len(dst).
func scaleGo(dst, src []float32, s float32) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] = s * v
	}
}

// sgdGo is SGD's portable body; h and g have len(w) elements. Each
// product is rounded explicitly, so that no target fuses it into the
// add that follows.
func sgdGo(w, h, g []float32, decay, lr, mom float32) {
	h, g = h[:len(w)], g[:len(w)]
	for i, v := range g {
		v += float32(decay * w[i])
		hi := float32(mom*h[i]) + float32(lr*v)
		h[i] = hi
		w[i] -= hi
	}
}
