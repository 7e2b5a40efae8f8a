package core

import (
	"fmt"
	"math"
	"testing"

	"swcaffe/internal/detrand"
	"swcaffe/internal/swdnn"
	"swcaffe/internal/tensor"
)

// refConvBackward is the convolution backward that recomputes each
// image's columns from the bottom blob: the oracle for ConvLayer's
// Backward, which reads the columns its Forward kept.
func refConvBackward(l *ConvLayer, in, dOut, dIn *tensor.Tensor) {
	s, gs := l.shape, l.Conv
	g := l.cfg.Groups
	ro, co := s.OutDims()
	kdim := gs.Ni * s.K * s.K
	spatial := ro * co
	imgIn := s.Ni * s.Ri * s.Ci
	imgOut := s.No * spatial
	grpIn := gs.Ni * s.Ri * s.Ci
	grpOut := gs.No * spatial
	wPerGroup := gs.No * kdim
	col := make([]float32, kdim*spatial)
	dcol := make([]float32, kdim*spatial)
	for n := 0; n < s.B; n++ {
		for gi := 0; gi < g; gi++ {
			src := in.Data[n*imgIn+gi*grpIn : n*imgIn+(gi+1)*grpIn]
			dy := dOut.Data[n*imgOut+gi*grpOut : n*imgOut+(gi+1)*grpOut]
			swdnn.Im2colRef(src, gs, col)
			swdnn.RefGEMMTransB(dy, col, l.weight.Diff.Data[gi*wPerGroup:(gi+1)*wPerGroup], gs.No, spatial, kdim)
			if dIn != nil {
				clear(dcol)
				swdnn.RefGEMMTransA(l.weight.Data.Data[gi*wPerGroup:(gi+1)*wPerGroup], dy, dcol, kdim, gs.No, spatial)
				swdnn.Col2imRef(dcol, gs, dIn.Data[n*imgIn+gi*grpIn:n*imgIn+(gi+1)*grpIn])
			}
		}
		if l.bias != nil {
			dy := dOut.Data[n*imgOut : (n+1)*imgOut]
			for o := 0; o < s.No; o++ {
				var acc float32
				for _, v := range dy[o*spatial : (o+1)*spatial] {
					acc += v
				}
				l.bias.Diff.Data[o] += acc
			}
		}
	}
}

// convGrads is one backward's output: weight, bias and bottom
// gradients.
type convGrads struct{ w, b, x []float32 }

func (l *ConvLayer) takeGrads(dIn *tensor.Tensor) convGrads {
	g := convGrads{w: append([]float32(nil), l.weight.Diff.Data...), b: append([]float32(nil), l.bias.Diff.Data...)}
	if dIn != nil {
		g.x = append([]float32(nil), dIn.Data...)
	}
	return g
}

// firstDiff is the first index where a and b differ in bits, or -1.
func firstDiff(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

func (g convGrads) mismatch(want convGrads) string {
	for _, c := range []struct {
		name      string
		got, want []float32
	}{{"weight", g.w, want.w}, {"bias", g.b, want.b}, {"bottom", g.x, want.x}} {
		if i := firstDiff(c.got, c.want); i >= 0 {
			return fmt.Sprintf("%s gradient differs at %d (len %d vs %d)", c.name, i, len(c.got), len(c.want))
		}
	}
	return ""
}

// TestConvBackwardReusesForwardColumns pins ConvLayer's Backward to
// the recomputing oracle bit for bit over groups, stride, pad, kernel
// and batch, with and without a bottom gradient, and pins the
// contract: Backward reads the columns of the last Forward, not the
// bottom blob as it is when Backward runs.
func TestConvBackwardReusesForwardColumns(t *testing.T) {
	for _, groups := range []int{1, 2} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				for _, k := range []int{1, 3} {
					for _, batch := range []int{1, 3} {
						name := fmt.Sprintf("g%d_s%d_p%d_k%d_b%d", groups, stride, pad, k, batch)
						t.Run(name, func(t *testing.T) {
							checkConvBackward(t, ConvConfig{Name: name, Bottom: "x", Top: "y",
								NumOutput: 6, Kernel: k, Stride: stride, Pad: pad, Groups: groups, BiasTerm: true}, batch)
						})
					}
				}
			}
		}
	}
}

func checkConvBackward(t *testing.T, cfg ConvConfig, batch int) {
	rng := detrand.New(uint64(len(cfg.Name)*31 + batch))
	l := NewConv(cfg)
	in := tensor.New(batch, 4, 5, 6)
	shapes, err := l.Setup([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	sh := shapes[0]
	out := tensor.New(sh[0], sh[1], sh[2], sh[3])
	dOut := tensor.New(sh[0], sh[1], sh[2], sh[3])
	dOut.FillUniform(rng, -1, 1)
	dIn := tensor.New(in.N, in.C, in.H, in.W)
	run := func(dx *tensor.Tensor, backward func()) convGrads {
		l.weight.Diff.Zero()
		l.bias.Diff.Zero()
		if dx != nil {
			dx.Zero()
		}
		backward()
		return l.takeGrads(dx)
	}
	layer := func(dx *tensor.Tensor) func() {
		return func() {
			l.Backward([]*tensor.Tensor{in}, []*tensor.Tensor{out}, []*tensor.Tensor{dOut}, []*tensor.Tensor{dx}, Train)
		}
	}
	oracle := func(x, dx *tensor.Tensor) func() {
		return func() { refConvBackward(l, x, dOut, dx) }
	}

	// The plain pass, with and without a bottom gradient. A stale
	// Forward on other data comes first, so Backward must follow the
	// last one.
	in.FillUniform(rng, -1, 1)
	l.Forward([]*tensor.Tensor{in}, []*tensor.Tensor{out}, Train)
	in.FillUniform(rng, -1, 1)
	l.Forward([]*tensor.Tensor{in}, []*tensor.Tensor{out}, Train)
	for _, dx := range []*tensor.Tensor{dIn, nil} {
		want := run(dx, oracle(in, dx))
		if msg := run(dx, layer(dx)).mismatch(want); msg != "" {
			t.Fatalf("bottom gradient %v: %s", dx != nil, msg)
		}
	}

	// The contract: after Forward, overwriting the bottom blob does not
	// change what Backward computes; the weight gradient is still that
	// of the data Forward saw.
	seen := tensor.New(in.N, in.C, in.H, in.W)
	seen.CopyFrom(in)
	in.FillUniform(rng, -1, 1)
	want := run(dIn, oracle(seen, dIn))
	if msg := run(dIn, layer(dIn)).mismatch(want); msg != "" {
		t.Fatalf("Backward after the bottom changed: %s", msg)
	}
}
