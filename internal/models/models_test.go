package models

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"swcaffe/internal/core"
	"swcaffe/internal/perf"
	"swcaffe/internal/swdnn"
)

// Known parameter counts (weights + biases) of the reference
// architectures; the paper quotes the byte payloads in Secs. V-A and
// VI-C (AlexNet 232.6 MB, ResNet-50 97.7 MB, VGG-16 first FC 102M
// parameters).
func TestParameterCounts(t *testing.T) {
	cases := []struct {
		model string
		want  int64
		tol   float64
	}{
		{"alexnet-bn", 62_378_344, 0.08}, // grouped->full conv widening adds ~2%
		{"vgg16", 138_357_544, 0.01},
		{"vgg19", 143_667_240, 0.01},
		{"resnet50", 25_557_032, 0.03}, // BN stats excluded from learnables
		{"googlenet", 6_998_552, 0.05},
	}
	for _, c := range cases {
		build, ok := ByName(c.model)
		if !ok {
			t.Fatalf("model %s not registered", c.model)
		}
		spec := build(1)
		got := spec.ParamCount()
		ratio := float64(got) / float64(c.want)
		if ratio < 1-c.tol || ratio > 1+c.tol {
			t.Errorf("%s: %d params, want %d ±%.0f%%", c.model, got, c.want, c.tol*100)
		}
	}
}

func TestPaperParamPayloads(t *testing.T) {
	// Sec. VI-C: "the model parameter size of ResNet-50 is less than
	// AlexNet (97.7 MB vs 232.6 MB)".
	alex, _ := ByName("alexnet-bn")
	res, _ := ByName("resnet50")
	alexMB := float64(alex(1).ParamBytes()) / 1e6
	resMB := float64(res(1).ParamBytes()) / 1e6
	if alexMB < 220 || alexMB > 260 {
		t.Errorf("AlexNet payload %.1f MB, paper 232.6", alexMB)
	}
	if resMB < 92 || resMB > 110 {
		t.Errorf("ResNet-50 payload %.1f MB, paper 97.7", resMB)
	}
	if resMB >= alexMB {
		t.Error("ResNet-50 payload must be smaller than AlexNet's")
	}
	// Sec. V-A: "In VGG-16, the first fully-connected layer is 102M
	// [parameters], while the first convolutional layer is only 1.7KB".
	vgg, _ := ByName("vgg16")
	spec := vgg(1)
	var fc6, conv11 int64
	for i := range spec.Layers {
		switch spec.Layers[i].Name {
		case "fc6":
			fc6 = spec.Layers[i].Params()
		case "conv1_1":
			conv11 = spec.Layers[i].Params()
		}
	}
	if fc6 < 100e6 || fc6 > 105e6 {
		t.Errorf("VGG fc6 params = %d, want ~102.7M", fc6)
	}
	if b := conv11 * 4; b < 1500 || b > 8000 {
		t.Errorf("VGG conv1_1 bytes = %d, want ~1.7-7 KB", b)
	}
}

func TestSpecShapesTerminate(t *testing.T) {
	for _, name := range Names() {
		build, _ := ByName(name)
		spec := build(2)
		if len(spec.Layers) == 0 {
			t.Fatalf("%s: empty spec", name)
		}
		last := spec.Layers[len(spec.Layers)-1]
		if last.Kind != KSoftmaxLoss {
			t.Fatalf("%s: last layer is %v, want softmax loss", name, last.Kind)
		}
		// The classifier must emit 1000 classes.
		for i := range spec.Layers {
			l := &spec.Layers[i]
			if l.Kind == KSoftmaxLoss && l.Cout != 1000 {
				t.Fatalf("%s: loss over %d classes", name, l.Cout)
			}
		}
	}
}

func TestSpecCostsPositive(t *testing.T) {
	devs := []perf.Device{perf.NewSWCG(), perf.NewK40m(), perf.NewXeonCPU()}
	for _, name := range Names() {
		build, _ := ByName(name)
		spec := build(8)
		for _, dev := range devs {
			perLayer, total := spec.Cost(dev)
			if total.Total() <= 0 {
				t.Fatalf("%s on %s: non-positive iteration cost", name, dev.Name())
			}
			for i, c := range perLayer {
				if c.Forward < 0 || c.Backward < 0 {
					t.Fatalf("%s on %s: negative cost at layer %s", name, dev.Name(), spec.Layers[i].Name)
				}
			}
		}
	}
}

// TestSpecSharedPerNameAndBatch: every route to a spec returns the one
// pointer for (name, batch), a hit allocates nothing, and another
// batch is another spec of the same architecture.
func TestSpecSharedPerNameAndBatch(t *testing.T) {
	ctors := map[string]func(int) *ModelSpec{
		"alexnet-bn": AlexNet, "alexnet-lrn": AlexNetLRN, "vgg16": VGG16,
		"vgg19": VGG19, "resnet50": ResNet50, "googlenet": GoogLeNet,
	}
	for _, name := range Names() {
		build, _ := ByName(name)
		spec := build(8)
		if spec.Name != name || spec.Batch != 8 || spec.InputDim[0] != 8 {
			t.Fatalf("%s: built %s at batch %d, dims %+v", name, spec.Name, spec.Batch, spec.InputDim)
		}
		if build(8) != spec || ctors[name](8) != spec {
			t.Errorf("%s: a second call built a second spec", name)
		}
	}
	resnet, _ := ByName("resnet50")
	if n := testing.AllocsPerRun(100, func() { resnet(8) }); n != 0 {
		t.Errorf("warm ByName(resnet50)(8): %v allocs/op, want 0", n)
	}

	s8, s32 := VGG16(8), VGG16(32)
	if s8 == s32 || s32.Batch != 32 || s32.InputDim[0] != 32 {
		t.Fatalf("batch 32 spec: %+v", s32.InputDim)
	}
	if s8.ParamCount() != s32.ParamCount() {
		t.Fatal("parameter count must not depend on batch")
	}
	dev := perf.NewSWCG()
	_, t8 := s8.Cost(dev)
	_, t32 := s32.Cost(dev)
	if t32.Total() <= t8.Total() {
		t.Fatal("larger batch must cost more")
	}
}

// TestTotalIsCostTotalPricedOnce: Total gives Cost's total bit for
// bit on every network and device kind; a second call through another
// device of equal parameters queries no planner; and a device whose
// parameters changed is priced afresh, never served a stale sum.
func TestTotalIsCostTotalPricedOnce(t *testing.T) {
	same := func(a, b core.LayerCost) bool {
		return math.Float64bits(a.Forward) == math.Float64bits(b.Forward) &&
			math.Float64bits(a.Backward) == math.Float64bits(b.Backward)
	}
	for _, name := range Names() {
		build, _ := ByName(name)
		spec := build(8)
		for _, dev := range []perf.Device{perf.NewSWCG(), perf.NewK40m(), perf.NewXeonCPU()} {
			_, want := spec.Cost(dev)
			if got := spec.Total(dev); !same(got, want) {
				t.Fatalf("%s on %s: Total %+v, Cost's total %+v", name, dev.Name(), got, want)
			}
		}
	}

	vgg := VGG16(8)
	want := vgg.Total(perf.NewSWCG())
	h0, m0 := swdnn.PlanCacheCounters()
	if got := vgg.Total(perf.NewSWCG()); !same(got, want) {
		t.Fatalf("second Total %+v, first %+v", got, want)
	}
	if h1, m1 := swdnn.PlanCacheCounters(); h1 != h0 || m1 != m0 {
		t.Fatalf("a memoized Total queried the planners: %d hits, %d misses", h1-h0, m1-m0)
	}

	slow := perf.NewSWCG()
	slow.HW.DMAPeak /= 4
	if got := vgg.Total(slow); got.Total() <= want.Total() {
		t.Fatalf("quarter-bandwidth SW26010 priced %g, full bandwidth %g: stale memo", got.Total(), want.Total())
	}
	gpu := perf.NewK40m()
	fast := vgg.Total(gpu)
	gpu.PeakFlops /= 2
	if got := vgg.Total(gpu); got.Total() <= fast.Total() {
		t.Fatalf("half-peak K40m priced %g, full peak %g: stale memo", got.Total(), fast.Total())
	}
}

// TestSpecSharedUnderConcurrency (run under -race): goroutines racing
// on a (name, batch) nobody has asked for yet all get one pointer.
func TestSpecSharedUnderConcurrency(t *testing.T) {
	const goroutines = 16
	got := make([]*ModelSpec, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = GoogLeNet(11)
		}()
	}
	wg.Wait()
	for g, spec := range got {
		if spec == nil || spec != got[0] {
			t.Fatalf("goroutine %d got %p, goroutine 0 got %p", g, spec, got[0])
		}
	}
}

// TestNetsFromSharedSpecOwnTheirTensors: the spec is shared, the nets
// materialized from it are not — writing one net's parameters must not
// show in the other's.
func TestNetsFromSharedSpecOwnTheirTensors(t *testing.T) {
	spec := GoogLeNet(1)
	nets := [2]*core.Net{spec.Net(), spec.Net()}
	for _, n := range nets {
		if err := n.Setup(spec.InputTensors()); err != nil {
			t.Fatal(err)
		}
	}
	a, b := nets[0].LearnableParams(), nets[1].LearnableParams()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("%d vs %d learnable params", len(a), len(b))
	}
	for i := range a {
		if a[i] == b[i] || a[i].Data == b[i].Data || a[i].Diff == b[i].Diff {
			t.Fatalf("param %d is shared between the two nets", i)
		}
		b[i].Data.Data[0], b[i].Diff.Data[0] = 0, 0
		a[i].Data.Data[0], a[i].Diff.Data[0] = 7, 7
		if b[i].Data.Data[0] != 0 || b[i].Diff.Data[0] != 0 {
			t.Fatalf("param %d: a write to one net reached the other", i)
		}
	}
}

func TestFlopsPerImage(t *testing.T) {
	// Forward multiply-add flops per image, sanity bands from the
	// literature: AlexNet ~1.5-3G, VGG-16 ~30-32G, ResNet-50 ~7-8.5G,
	// GoogLeNet ~3-3.5G (2x MACs convention).
	cases := []struct {
		model  string
		lo, hi float64
	}{
		{"alexnet-bn", 1.5e9, 3.2e9},
		{"vgg16", 29e9, 32e9},
		{"vgg19", 37e9, 41e9},
		{"resnet50", 7e9, 8.6e9},
		{"googlenet", 2.8e9, 3.6e9},
	}
	for _, c := range cases {
		build, _ := ByName(c.model)
		spec := build(4)
		perImg := spec.Flops() / 4
		if perImg < c.lo || perImg > c.hi {
			t.Errorf("%s: %.2f Gflops/img outside [%g, %g]", c.model, perImg/1e9, c.lo/1e9, c.hi/1e9)
		}
	}
}

// TestNetMaterialization builds the functional nets at a tiny batch
// and checks shape propagation end to end (running a full ImageNet
// model functionally is covered by the small nets in core's tests; a
// 224x224 forward in pure Go is too slow for the suite).
func TestNetMaterialization(t *testing.T) {
	for _, name := range Names() {
		build, _ := ByName(name)
		spec := build(1)
		net := spec.Net()
		inputs := spec.InputTensors()
		if err := net.Setup(inputs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if net.ParamBytes() != spec.ParamBytes() {
			t.Fatalf("%s: net params %d != spec params %d (the two views drifted)",
				name, net.ParamBytes(), spec.ParamBytes())
		}
	}
}

func TestAlexNetForwardBackwardFunctional(t *testing.T) {
	if testing.Short() {
		t.Skip("functional AlexNet pass is slow")
	}
	build, _ := ByName("alexnet-bn")
	spec := build(1)
	net := spec.Net()
	inputs := spec.InputTensors()
	if err := net.Setup(inputs); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	inputs["data"].FillGaussian(rng, 0, 1)
	inputs["label"].Data[0] = 3
	loss := net.Forward(core.Train)
	if loss <= 0 || loss != loss {
		t.Fatalf("loss = %g", loss)
	}
	net.Backward(core.Train)
	var nonzero int
	for _, p := range net.LearnableParams() {
		if p.Diff.MaxAbs() > 0 {
			nonzero++
		}
	}
	if nonzero < len(net.LearnableParams())/2 {
		t.Fatalf("only %d of %d params received gradient", nonzero, len(net.LearnableParams()))
	}
}
