package f32

// The amd64 bodies of the primitives, in f32_amd64.s. SSE2 is part of
// the amd64 baseline, so there is nothing to detect. Every operand has
// exactly len of the first one's elements; the exported wrappers in
// f32.go pin that.

// add computes dst[i] = a[i] + b[i].
//
//go:noescape
func add(dst, a, b []float32)

// relu sets out[i] = in[i] where 0 < in[i], else s·in[i].
//
//go:noescape
func relu(out, in []float32, s float32)

// reluGrad adds dy[i] to dx[i] where 0 < in[i], else s·dy[i].
//
//go:noescape
func reluGrad(dx, in, dy []float32, s float32)

// scale sets dst[i] = s·src[i].
//
//go:noescape
func scale(dst, src []float32, s float32)

// sgd applies h[i] = mom·h[i] + lr·(g[i] + decay·w[i]); w[i] −= h[i].
//
//go:noescape
func sgd(w, h, g []float32, decay, lr, mom float32)
