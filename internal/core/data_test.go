package core

import (
	"math/rand"
	"testing"

	"swcaffe/internal/tensor"
)

func TestGroupedConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	l := NewConv(ConvConfig{Name: "gconv", Bottom: "x", Top: "y",
		NumOutput: 6, Kernel: 3, Stride: 1, Pad: 1, Groups: 2, BiasTerm: true})
	gradCheck(t, l, []*tensor.Tensor{randInput(rng, 2, 4, 5, 5)}, []bool{true})
}

func TestGroupedConvEqualsBlockDiagonal(t *testing.T) {
	// A 2-group conv equals two independent convs over the channel
	// halves.
	rng := rand.New(rand.NewSource(85))
	in := randInput(rng, 1, 4, 6, 6)

	grouped := NewConv(ConvConfig{Name: "g", Bottom: "x", Top: "y",
		NumOutput: 4, Kernel: 3, Pad: 1, Groups: 2, BiasTerm: false})
	shapes, err := grouped.Setup([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(shapes[0][0], shapes[0][1], shapes[0][2], shapes[0][3])
	grouped.Forward([]*tensor.Tensor{in}, []*tensor.Tensor{out}, Train)

	// Rebuild the two halves as separate ungrouped convs sharing the
	// grouped layer's weights.
	w := grouped.Params()[0].Data
	for half := 0; half < 2; half++ {
		sub := NewConv(ConvConfig{Name: "h", Bottom: "x", Top: "y",
			NumOutput: 2, Kernel: 3, Pad: 1, BiasTerm: false})
		subIn := tensor.New(1, 2, 6, 6)
		copy(subIn.Data, in.Data[half*2*36:(half+1)*2*36])
		sh, err := sub.Setup([]*tensor.Tensor{subIn})
		if err != nil {
			t.Fatal(err)
		}
		copy(sub.Params()[0].Data.Data, w.Data[half*2*2*9:(half+1)*2*2*9])
		subOut := tensor.New(sh[0][0], sh[0][1], sh[0][2], sh[0][3])
		sub.Forward([]*tensor.Tensor{subIn}, []*tensor.Tensor{subOut}, Train)
		for i, v := range subOut.Data {
			if got := out.Data[half*2*36+i]; got != v {
				t.Fatalf("half %d elem %d: grouped %g vs independent %g", half, i, got, v)
			}
		}
	}
}

func TestGroupedConvParamCount(t *testing.T) {
	// Groups divide the weight count by G (the AlexNet trick).
	rng := rand.New(rand.NewSource(86))
	in := randInput(rng, 1, 8, 5, 5)
	g1 := NewConv(ConvConfig{Name: "a", Bottom: "x", Top: "y", NumOutput: 8, Kernel: 3, Pad: 1})
	g2 := NewConv(ConvConfig{Name: "b", Bottom: "x", Top: "y", NumOutput: 8, Kernel: 3, Pad: 1, Groups: 2})
	if _, err := g1.Setup([]*tensor.Tensor{in}); err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Setup([]*tensor.Tensor{in}); err != nil {
		t.Fatal(err)
	}
	if 2*g2.Params()[0].Data.Len() != g1.Params()[0].Data.Len() {
		t.Fatalf("grouped weights %d, ungrouped %d", g2.Params()[0].Data.Len(), g1.Params()[0].Data.Len())
	}
	// Invalid group split is rejected.
	bad := NewConv(ConvConfig{Name: "c", Bottom: "x", Top: "y", NumOutput: 8, Kernel: 3, Groups: 3})
	if _, err := bad.Setup([]*tensor.Tensor{in}); err == nil {
		t.Fatal("expected group-divisibility error")
	}
}

func TestSolverCheckFiniteCatchesNaN(t *testing.T) {
	// Failure injection: poison a weight and expect the guard to fire.
	net, _ := buildTinyNet(t, 2)
	solver := NewSolver(net, SolverConfig{BaseLR: 0.01})
	net.LearnableParams()[0].Data.Data[0] = float32(nan())
	defer func() {
		if recover() == nil {
			t.Fatal("CheckFinite must panic on NaN parameters")
		}
	}()
	solver.CheckFinite()
}

func nan() float64 {
	z := 0.0
	return z / z
}
