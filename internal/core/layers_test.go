package core

import (
	"math/rand"
	"testing"

	"swcaffe/internal/tensor"
)

// gradCheck verifies a layer's Backward against central-difference
// numerical gradients of the scalar loss L = Σ w_ij · top_ij for a
// random fixed weighting w. It checks both bottom gradients and
// parameter gradients. float32 forward passes limit the achievable
// accuracy, hence the loose-ish tolerances.
func gradCheck(t *testing.T, l Layer, bottoms []*tensor.Tensor, checkBottoms []bool) {
	t.Helper()
	shapes, err := l.Setup(bottoms)
	if err != nil {
		t.Fatalf("%s: setup: %v", l.Name(), err)
	}
	tops := make([]*tensor.Tensor, len(shapes))
	topDiffs := make([]*tensor.Tensor, len(shapes))
	rng := rand.New(rand.NewSource(321))
	for i, sh := range shapes {
		tops[i] = tensor.New(sh[0], sh[1], sh[2], sh[3])
		topDiffs[i] = tensor.New(sh[0], sh[1], sh[2], sh[3])
		topDiffs[i].FillUniform(rng, -1, 1)
	}

	loss := func() float64 {
		l.Forward(bottoms, tops, Train)
		var s float64
		for i := range tops {
			s += tops[i].Dot(topDiffs[i])
		}
		return s
	}

	// Analytic gradients.
	bottomDiffs := make([]*tensor.Tensor, len(bottoms))
	for i, b := range bottoms {
		if checkBottoms[i] {
			bottomDiffs[i] = tensor.New(b.N, b.C, b.H, b.W)
		}
	}
	for _, p := range l.Params() {
		p.Diff.Zero()
	}
	loss() // populate caches (argmax, xhat, ...)
	l.Backward(bottoms, tops, topDiffs, bottomDiffs, Train)

	const eps = 1e-2
	const rtol, atol = 6e-2, 6e-3

	check := func(name string, data *tensor.Tensor, grad *tensor.Tensor) {
		t.Helper()
		n := data.Len()
		stride := 1
		if n > 200 {
			stride = n / 200 // sample large tensors
		}
		for i := 0; i < n; i += stride {
			orig := data.Data[i]
			data.Data[i] = orig + eps
			lp := loss()
			data.Data[i] = orig - eps
			lm := loss()
			data.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			got := float64(grad.Data[i])
			diff := num - got
			if diff < 0 {
				diff = -diff
			}
			mag := num
			if mag < 0 {
				mag = -mag
			}
			if diff > atol+rtol*mag {
				t.Fatalf("%s: %s[%d]: analytic %g vs numeric %g", l.Name(), name, i, got, num)
			}
		}
	}

	for i := range bottoms {
		if checkBottoms[i] {
			check("bottom"+string(rune('0'+i)), bottoms[i], bottomDiffs[i])
		}
	}
	for _, p := range l.Params() {
		if p.LRMult == 0 {
			continue // running statistics, not gradient-trained
		}
		check(p.Name, p.Data, p.Diff)
	}
}

func randInput(rng *rand.Rand, n, c, h, w int) *tensor.Tensor {
	t := tensor.New(n, c, h, w)
	t.FillGaussian(rng, 0, 1)
	return t
}

func TestConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewConv(ConvConfig{Name: "conv", Bottom: "x", Top: "y",
		NumOutput: 4, Kernel: 3, Stride: 1, Pad: 1, BiasTerm: true})
	gradCheck(t, l, []*tensor.Tensor{randInput(rng, 2, 3, 5, 5)}, []bool{true})
}

func TestConvStrideNoPadGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewConv(ConvConfig{Name: "conv2", Bottom: "x", Top: "y",
		NumOutput: 3, Kernel: 2, Stride: 2, BiasTerm: false})
	gradCheck(t, l, []*tensor.Tensor{randInput(rng, 2, 2, 6, 6)}, []bool{true})
}

func TestInnerProductGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewInnerProduct(InnerProductConfig{Name: "fc", Bottom: "x", Top: "y",
		NumOutput: 5, BiasTerm: true})
	gradCheck(t, l, []*tensor.Tensor{randInput(rng, 3, 4, 2, 2)}, []bool{true})
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := randInput(rng, 2, 3, 4, 4)
	// Keep activations away from the kink so finite differences work.
	for i := range in.Data {
		if v := in.Data[i]; v > -0.05 && v < 0.05 {
			in.Data[i] = 0.2
		}
	}
	gradCheck(t, NewReLU("relu", "x", "y", 0), []*tensor.Tensor{in}, []bool{true})
}

func TestLeakyReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randInput(rng, 2, 2, 3, 3)
	for i := range in.Data {
		if v := in.Data[i]; v > -0.05 && v < 0.05 {
			in.Data[i] = -0.2
		}
	}
	gradCheck(t, NewReLU("lrelu", "x", "y", 0.1), []*tensor.Tensor{in}, []bool{true})
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewPool(PoolConfig{Name: "pool", Bottom: "x", Top: "y",
		Method: MaxPool, Kernel: 2, Stride: 2})
	gradCheck(t, l, []*tensor.Tensor{randInput(rng, 2, 2, 6, 6)}, []bool{true})
}

func TestAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewPool(PoolConfig{Name: "apool", Bottom: "x", Top: "y",
		Method: AvgPool, Kernel: 3, Stride: 2, Pad: 1})
	gradCheck(t, l, []*tensor.Tensor{randInput(rng, 2, 2, 5, 5)}, []bool{true})
}

func TestGlobalPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewPool(PoolConfig{Name: "gpool", Bottom: "x", Top: "y",
		Method: AvgPool, Global: true})
	gradCheck(t, l, []*tensor.Tensor{randInput(rng, 2, 3, 4, 4)}, []bool{true})
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gradCheck(t, NewBatchNorm("bn", "x", "y"), []*tensor.Tensor{randInput(rng, 3, 2, 3, 3)}, []bool{true})
}

func TestScaleGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	gradCheck(t, NewScale("scale", "x", "y"), []*tensor.Tensor{randInput(rng, 2, 3, 3, 3)}, []bool{true})
}

func TestLRNGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gradCheck(t, NewLRN("lrn", "x", "y"), []*tensor.Tensor{randInput(rng, 2, 6, 3, 3)}, []bool{true})
}

func TestEltwiseSumGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewEltwise("sum", []string{"a", "b"}, "y", EltSum)
	gradCheck(t, l, []*tensor.Tensor{randInput(rng, 2, 2, 3, 3), randInput(rng, 2, 2, 3, 3)},
		[]bool{true, true})
}

func TestEltwiseProdGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := NewEltwise("prod", []string{"a", "b"}, "y", EltProd)
	gradCheck(t, l, []*tensor.Tensor{randInput(rng, 2, 2, 2, 2), randInput(rng, 2, 2, 2, 2)},
		[]bool{true, true})
}

func TestConcatGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	l := NewConcat("cat", []string{"a", "b", "c"}, "y")
	gradCheck(t, l, []*tensor.Tensor{
		randInput(rng, 2, 2, 3, 3), randInput(rng, 2, 3, 3, 3), randInput(rng, 2, 1, 3, 3),
	}, []bool{true, true, true})
}

func TestSoftmaxLossGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	scores := randInput(rng, 4, 5, 1, 1)
	labels := tensor.New(4, 1, 1, 1)
	for i := 0; i < 4; i++ {
		labels.Data[i] = float32(rng.Intn(5))
	}
	l := NewSoftmaxLoss("loss", "scores", "label", "loss")
	shapes, err := l.Setup([]*tensor.Tensor{scores, labels})
	if err != nil {
		t.Fatal(err)
	}
	top := tensor.New(shapes[0][0], shapes[0][1], shapes[0][2], shapes[0][3])
	topDiff := tensor.New(1, 1, 1, 1)
	topDiff.Data[0] = 1

	bottoms := []*tensor.Tensor{scores, labels}
	tops := []*tensor.Tensor{top}
	l.Forward(bottoms, tops, Train)
	dScores := tensor.New(4, 5, 1, 1)
	l.Backward(bottoms, tops, []*tensor.Tensor{topDiff}, []*tensor.Tensor{dScores, nil}, Train)

	const eps = 1e-2
	for i := range scores.Data {
		orig := scores.Data[i]
		scores.Data[i] = orig + eps
		l.Forward(bottoms, tops, Train)
		lp := float64(top.Data[0])
		scores.Data[i] = orig - eps
		l.Forward(bottoms, tops, Train)
		lm := float64(top.Data[0])
		scores.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		got := float64(dScores.Data[i])
		if d := num - got; d > 2e-3 || d < -2e-3 {
			t.Fatalf("softmax grad[%d]: analytic %g vs numeric %g", i, got, num)
		}
	}
	// Probabilities must sum to one per row.
	prob := l.prob[:l.b*l.c]
	for n := 0; n < 4; n++ {
		var s float64
		for c := 0; c < 5; c++ {
			s += float64(prob[n*5+c])
		}
		if s < 0.999 || s > 1.001 {
			t.Fatalf("probabilities row %d sum to %g", n, s)
		}
	}
}

func TestDropoutTrainAndTest(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	in := randInput(rng, 4, 8, 4, 4)
	l := NewDropout("drop", "x", "y", 0.5)
	shapes, err := l.Setup([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(shapes[0][0], shapes[0][1], shapes[0][2], shapes[0][3])

	// Test phase: identity.
	l.Forward([]*tensor.Tensor{in}, []*tensor.Tensor{out}, Test)
	if !tensor.AllClose(in, out, 0, 0) {
		t.Fatal("dropout at test time must be the identity")
	}

	// Train phase: survivors scaled by 2, about half dropped, and the
	// backward mask must match the forward mask exactly.
	l.Forward([]*tensor.Tensor{in}, []*tensor.Tensor{out}, Train)
	dropped := 0
	for i := range out.Data {
		switch out.Data[i] {
		case 0:
			dropped++
		case in.Data[i] * 2:
		default:
			t.Fatalf("elem %d: %g is neither 0 nor 2x input %g", i, out.Data[i], in.Data[i])
		}
	}
	frac := float64(dropped) / float64(in.Len())
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("drop fraction %g implausible for ratio 0.5", frac)
	}
	dy := tensor.New(in.N, in.C, in.H, in.W)
	dy.Fill(1)
	dx := tensor.New(in.N, in.C, in.H, in.W)
	l.Backward([]*tensor.Tensor{in}, []*tensor.Tensor{out}, []*tensor.Tensor{dy}, []*tensor.Tensor{dx}, Train)
	for i := range dx.Data {
		wantZero := out.Data[i] == 0 && in.Data[i] != 0
		if wantZero && dx.Data[i] != 0 {
			t.Fatalf("gradient leaked through dropped unit %d", i)
		}
	}
}

func TestAccuracyLayer(t *testing.T) {
	scores := tensor.New(3, 4, 1, 1)
	labels := tensor.New(3, 1, 1, 1)
	copy(scores.Data, []float32{
		0.1, 0.9, 0.0, 0.0, // argmax 1
		0.8, 0.1, 0.5, 0.2, // argmax 0; label 2 is second-best
		0.0, 0.0, 0.3, 0.7, // argmax 3
	})
	copy(labels.Data, []float32{1, 2, 3}) // correct, wrong, correct
	l := NewAccuracy("acc", "scores", "label", "acc", 1)
	shapes, err := l.Setup([]*tensor.Tensor{scores, labels})
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(shapes[0][0], shapes[0][1], shapes[0][2], shapes[0][3])
	l.Forward([]*tensor.Tensor{scores, labels}, []*tensor.Tensor{out}, Test)
	if got := out.Data[0]; got < 0.66 || got > 0.67 {
		t.Fatalf("top-1 accuracy %g, want 2/3", got)
	}
	l5 := NewAccuracy("acc2", "scores", "label", "acc2", 2)
	l5.Setup([]*tensor.Tensor{scores, labels})
	l5.Forward([]*tensor.Tensor{scores, labels}, []*tensor.Tensor{out}, Test)
	if got := out.Data[0]; got != 1 {
		t.Fatalf("top-2 accuracy %g, want 1 (label 2 is second-best of row 1)", got)
	}
}

func TestBatchNormRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	in := randInput(rng, 8, 2, 4, 4)
	in.Scale(3)
	l := NewBatchNorm("bn", "x", "y")
	shapes, _ := l.Setup([]*tensor.Tensor{in})
	out := tensor.New(shapes[0][0], shapes[0][1], shapes[0][2], shapes[0][3])
	for i := 0; i < 50; i++ {
		l.Forward([]*tensor.Tensor{in}, []*tensor.Tensor{out}, Train)
	}
	// Train-mode output is normalized per channel.
	hw := in.H * in.W
	for c := 0; c < in.C; c++ {
		var sum, sq float64
		for n := 0; n < in.N; n++ {
			for i := 0; i < hw; i++ {
				v := float64(out.At(n, c, i/in.W, i%in.W))
				sum += v
				sq += v * v
			}
		}
		cnt := float64(in.N * hw)
		mean := sum / cnt
		variance := sq/cnt - mean*mean
		if mean < -1e-3 || mean > 1e-3 || variance < 0.9 || variance > 1.1 {
			t.Fatalf("channel %d not normalized: mean %g var %g", c, mean, variance)
		}
	}
	// Test-mode forward with converged running stats also normalizes.
	l.Forward([]*tensor.Tensor{in}, []*tensor.Tensor{out}, Test)
	if out.MaxAbs() > 10 {
		t.Fatal("test-mode batch norm diverged")
	}
}
