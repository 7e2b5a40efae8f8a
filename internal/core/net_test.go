package core

import (
	"math"
	"math/rand"
	"testing"

	"swcaffe/internal/perf"
	"swcaffe/internal/tensor"
)

func buildTinyNet(t *testing.T, batch int) (*Net, map[string]*tensor.Tensor) {
	t.Helper()
	net := NewNet("tiny", "data", "label")
	net.AddLayers(
		NewConv(ConvConfig{Name: "conv1", Bottom: "data", Top: "conv1",
			NumOutput: 4, Kernel: 3, Stride: 1, Pad: 1, BiasTerm: true}),
		NewReLU("relu1", "conv1", "conv1", 0),
		NewPool(PoolConfig{Name: "pool1", Bottom: "conv1", Top: "pool1",
			Method: MaxPool, Kernel: 2, Stride: 2}),
		NewInnerProduct(InnerProductConfig{Name: "fc", Bottom: "pool1", Top: "fc",
			NumOutput: 3, BiasTerm: true}),
		NewSoftmaxLoss("loss", "fc", "label", "loss"),
	)
	inputs := map[string]*tensor.Tensor{
		"data":  tensor.New(batch, 2, 6, 6),
		"label": tensor.New(batch, 1, 1, 1),
	}
	if err := net.Setup(inputs); err != nil {
		t.Fatal(err)
	}
	return net, inputs
}

func TestNetSetupShapes(t *testing.T) {
	net, _ := buildTinyNet(t, 4)
	if b := net.Blob("conv1"); b == nil || b.Shape() != [4]int{4, 4, 6, 6} {
		t.Fatalf("conv1 shape %v", net.Blob("conv1"))
	}
	if b := net.Blob("pool1"); b == nil || b.Shape() != [4]int{4, 4, 3, 3} {
		t.Fatalf("pool1 shape %v", net.Blob("pool1"))
	}
	if b := net.Blob("fc"); b == nil || b.Shape() != [4]int{4, 3, 1, 1} {
		t.Fatalf("fc shape %v", net.Blob("fc"))
	}
	// Conv (w+b) + FC (w+b) = 4 learnable params.
	if got := len(net.LearnableParams()); got != 4 {
		t.Fatalf("learnable params = %d, want 4", got)
	}
}

func TestNetUndefinedBlobError(t *testing.T) {
	net := NewNet("bad", "data")
	net.AddLayer(NewReLU("r", "nonexistent", "y", 0))
	err := net.Setup(map[string]*tensor.Tensor{"data": tensor.New(1, 1, 2, 2)})
	if err == nil {
		t.Fatal("expected error for undefined bottom blob")
	}
}

func TestNetMissingInputError(t *testing.T) {
	net := NewNet("bad", "data", "label")
	if err := net.Setup(map[string]*tensor.Tensor{"data": tensor.New(1, 1, 2, 2)}); err == nil {
		t.Fatal("expected error for missing input")
	}
}

func TestNetForwardBackwardTrains(t *testing.T) {
	net, inputs := buildTinyNet(t, 8)
	rng := rand.New(rand.NewSource(20))
	inputs["data"].FillGaussian(rng, 0, 1)
	for i := 0; i < 8; i++ {
		inputs["label"].Data[i] = float32(i % 3)
	}
	solver := NewSolver(net, SolverConfig{BaseLR: 0.1, Momentum: 0.9})
	first := solver.Step()
	var last float32
	for i := 0; i < 60; i++ {
		last = solver.Step()
	}
	if !(last < first) {
		t.Fatalf("loss did not decrease: %g -> %g", first, last)
	}
	solver.CheckFinite()
	if solver.Iter() != 61 {
		t.Fatalf("iter = %d", solver.Iter())
	}
}

func TestGradientAccumulationAcrossFanOut(t *testing.T) {
	// A blob consumed by two layers must receive summed gradients —
	// the ResNet skip-connection contract.
	net := NewNet("fan", "data", "label")
	net.AddLayers(
		NewInnerProduct(InnerProductConfig{Name: "fca", Bottom: "data", Top: "a", NumOutput: 4, BiasTerm: true}),
		NewEltwise("sum", []string{"a", "a"}, "twice", EltSum), // a used twice
		NewInnerProduct(InnerProductConfig{Name: "fcb", Bottom: "twice", Top: "b", NumOutput: 2, BiasTerm: true}),
		NewSoftmaxLoss("loss", "b", "label", "loss"),
	)
	inputs := map[string]*tensor.Tensor{
		"data":  tensor.New(2, 3, 1, 1),
		"label": tensor.New(2, 1, 1, 1),
	}
	if err := net.Setup(inputs); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	inputs["data"].FillGaussian(rng, 0, 1)
	net.Forward(Train)
	net.Backward(Train)
	// d(loss)/da through the eltwise layer is twice d(loss)/d(twice).
	da := net.diffs["a"]
	dt := net.diffs["twice"]
	for i := range da.Data {
		if diff := da.Data[i] - 2*dt.Data[i]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("fan-out gradient not summed at %d: %g vs 2*%g", i, da.Data[i], dt.Data[i])
		}
	}
}

func TestPackUnpackGradients(t *testing.T) {
	net, inputs := buildTinyNet(t, 4)
	rng := rand.New(rand.NewSource(22))
	inputs["data"].FillGaussian(rng, 0, 1)
	net.Forward(Train)
	net.Backward(Train)

	packed := net.PackGradients(nil)
	var want int
	for _, p := range net.LearnableParams() {
		want += p.Diff.Len()
	}
	if len(packed) != want {
		t.Fatalf("packed length %d, want %d", len(packed), want)
	}
	// Scale the packed copy and push it back.
	for i := range packed {
		packed[i] *= 3
	}
	before := make([]*tensor.Tensor, 0)
	for _, p := range net.LearnableParams() {
		before = append(before, p.Diff.Clone())
	}
	net.UnpackGradients(packed)
	for i, p := range net.LearnableParams() {
		for j := range p.Diff.Data {
			if d := p.Diff.Data[j] - 3*before[i].Data[j]; d > 1e-6 || d < -1e-6 {
				t.Fatalf("unpack mismatch param %d elem %d", i, j)
			}
		}
	}
	if net.ParamBytes() != int64(want)*4 {
		t.Fatalf("ParamBytes = %d, want %d", net.ParamBytes(), want*4)
	}
}

func TestNetCostPositiveOnAllDevices(t *testing.T) {
	net, _ := buildTinyNet(t, 4)
	for _, dev := range []perf.Device{perf.NewSWCG(), perf.NewK40m(), perf.NewXeonCPU(), perf.NewKNL()} {
		perLayer, total := net.Cost(dev)
		if len(perLayer) != len(net.Layers()) {
			t.Fatalf("%s: %d costs for %d layers", dev.Name(), len(perLayer), len(net.Layers()))
		}
		if total.Forward <= 0 || total.Backward <= 0 {
			t.Fatalf("%s: non-positive total cost %+v", dev.Name(), total)
		}
	}
}

func TestSolverLRPolicies(t *testing.T) {
	if got := (FixedLR{}).Rate(0.1, 500); got != 0.1 {
		t.Fatalf("fixed: %g", got)
	}
	step := StepLR{StepSize: 100, Gamma: 0.1}
	if got := step.Rate(1, 250); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("step: %g", got)
	}
}

func TestSolverMomentumUpdateMath(t *testing.T) {
	// One-parameter net: verify w' = w - (m*h + lr*(g + wd*w)) exactly.
	net := NewNet("one", "data", "label")
	net.AddLayers(
		NewInnerProduct(InnerProductConfig{Name: "fc", Bottom: "data", Top: "fc", NumOutput: 2, BiasTerm: false}),
		NewSoftmaxLoss("loss", "fc", "label", "loss"),
	)
	inputs := map[string]*tensor.Tensor{
		"data":  tensor.New(1, 2, 1, 1),
		"label": tensor.New(1, 1, 1, 1),
	}
	if err := net.Setup(inputs); err != nil {
		t.Fatal(err)
	}
	inputs["data"].Data[0], inputs["data"].Data[1] = 1, -1

	cfg := SolverConfig{BaseLR: 0.1, Momentum: 0.9, WeightDecay: 0.01}
	solver := NewSolver(net, cfg)
	p := net.LearnableParams()[0]

	w0 := append([]float32(nil), p.Data.Data...)
	net.ZeroParamDiffs()
	net.Forward(Train)
	net.Backward(Train)
	g0 := append([]float32(nil), p.Diff.Data...)
	solver.ApplyUpdate()
	for i := range w0 {
		h := float32(cfg.BaseLR) * (g0[i] + float32(cfg.WeightDecay)*w0[i])
		want := w0[i] - h
		if d := p.Data.Data[i] - want; d > 1e-6 || d < -1e-6 {
			t.Fatalf("first update elem %d: got %g want %g", i, p.Data.Data[i], want)
		}
	}
}

// TestSolverUpdateBitsOverSteps runs three momentum-SGD steps with
// weight decay and the biases' LRMult 2 / DecayMult 0, and compares
// every weight and history element bit for bit with Caffe's update
// written out here. Momentum, the learning rates and the decay all
// differ, and the history is nonzero from the second step, so passing
// any two of them to the update in each other's place changes bits.
func TestSolverUpdateBitsOverSteps(t *testing.T) {
	net, inputs := buildTinyNet(t, 4)
	rng := rand.New(rand.NewSource(35))
	inputs["data"].FillGaussian(rng, 0, 1)
	for i := range inputs["label"].Data {
		inputs["label"].Data[i] = float32(i % 3)
	}
	cfg := SolverConfig{BaseLR: 0.05, Momentum: 0.9, WeightDecay: 0.01}
	solver := NewSolver(net, cfg)
	params := net.LearnableParams()
	hist := make([][]float32, len(params))
	biases := 0
	for k, p := range params {
		hist[k] = make([]float32, len(p.Data.Data))
		if p.LRMult == 2 && p.DecayMult == 0 {
			biases++
		}
	}
	if biases != 2 {
		t.Fatalf("%d params with LRMult 2 / DecayMult 0, want the conv and IP biases", biases)
	}
	mom := float32(cfg.Momentum)
	for step := 0; step < 3; step++ {
		net.ZeroParamDiffs()
		net.Forward(Train)
		net.Backward(Train)
		want := make([][]float32, len(params))
		for k, p := range params {
			lr := float32(cfg.BaseLR * p.LRMult)
			decay := float32(cfg.WeightDecay * p.DecayMult)
			w := append([]float32(nil), p.Data.Data...)
			for i, g := range p.Diff.Data {
				g += float32(decay * w[i])
				hist[k][i] = float32(mom*hist[k][i]) + float32(lr*g)
				w[i] -= hist[k][i]
			}
			want[k] = w
		}
		solver.ApplyUpdate()
		for k, p := range params {
			h := solver.History(p).Data
			for i := range want[k] {
				if math.Float32bits(p.Data.Data[i]) != math.Float32bits(want[k][i]) ||
					math.Float32bits(h[i]) != math.Float32bits(hist[k][i]) {
					t.Fatalf("step %d param %d elem %d: w %g h %g, want w %g h %g",
						step, k, i, p.Data.Data[i], h[i], want[k][i], hist[k][i])
				}
			}
		}
	}
}

func TestSolverGradientClipping(t *testing.T) {
	net, inputs := buildTinyNet(t, 4)
	rng := rand.New(rand.NewSource(23))
	inputs["data"].FillGaussian(rng, 0, 100) // huge inputs -> huge grads
	solver := NewSolver(net, SolverConfig{BaseLR: 0.01, ClipGradients: 1.0})
	net.ZeroParamDiffs()
	net.Forward(Train)
	net.Backward(Train)
	solver.clipGradients()
	var norm float64
	for _, p := range net.LearnableParams() {
		norm += p.Diff.SumSquares()
	}
	if math.Sqrt(norm) > 1.0001 {
		t.Fatalf("clipped norm %g > 1", math.Sqrt(norm))
	}
}

func TestInPlaceLayerSharesBlob(t *testing.T) {
	net, _ := buildTinyNet(t, 2)
	// relu1 is in-place on conv1: same tensor object.
	if net.Blob("conv1") == nil {
		t.Fatal("conv1 missing")
	}
	found := 0
	for _, b := range net.blobs {
		if b == net.Blob("conv1") {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("in-place blob duplicated: %d", found)
	}
}
