//go:build !amd64

package f32

// Off amd64 the primitives run their portable bodies.

func add(dst, a, b []float32) { addGo(dst, a, b) }

func relu(out, in []float32, s float32) { reluGo(out, in, s) }

func reluGrad(dx, in, dy []float32, s float32) { reluGradGo(dx, in, dy, s) }

func scale(dst, src []float32, s float32) { scaleGo(dst, src, s) }

func sgd(w, h, g []float32, decay, lr, mom float32) { sgdGo(w, h, g, decay, lr, mom) }
