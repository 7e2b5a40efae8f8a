package core_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"swcaffe/internal/core"
	"swcaffe/internal/detrand"
	"swcaffe/internal/netdef"
	"swcaffe/internal/tensor"
)

// inputNet is a net under test, its declared inputs (the last one
// holds class labels), a blob that must keep its gradient, and the
// hex FNV-64a of one pass's learnable-parameter gradients, written
// while inputs not named like a label still received a gradient.
type inputNet struct {
	name   string
	build  func(t *testing.T) (*core.Net, map[string]*tensor.Tensor)
	inputs []string
	inner  string
	golden string
}

const inputClasses = 3

func setupNet(t *testing.T, net *core.Net, shapes map[string][4]int) (*core.Net, map[string]*tensor.Tensor) {
	t.Helper()
	in := make(map[string]*tensor.Tensor, len(shapes))
	for name, s := range shapes {
		in[name] = tensor.New(s[0], s[1], s[2], s[3])
	}
	if err := net.Setup(in); err != nil {
		t.Fatal(err)
	}
	return net, in
}

var inputNets = []inputNet{
	{
		name: "conv-first", inputs: []string{"data", "label"}, inner: "conv1",
		golden: "f6077940e26ee1bc",
		build: func(t *testing.T) (*core.Net, map[string]*tensor.Tensor) {
			net := core.NewNet("conv-first", "data", "label").AddLayers(
				core.NewConv(core.ConvConfig{Name: "conv1", Bottom: "data", Top: "conv1",
					NumOutput: 4, Kernel: 3, Stride: 1, Pad: 1, BiasTerm: true}),
				core.NewReLU("relu1", "conv1", "conv1", 0),
				core.NewPool(core.PoolConfig{Name: "pool1", Bottom: "conv1", Top: "pool1",
					Method: core.MaxPool, Kernel: 2, Stride: 2}),
				core.NewInnerProduct(core.InnerProductConfig{Name: "fc", Bottom: "pool1", Top: "fc",
					NumOutput: inputClasses, BiasTerm: true}),
				core.NewSoftmaxLoss("loss", "fc", "label", "loss"),
			)
			return setupNet(t, net, map[string][4]int{"data": {3, 2, 6, 6}, "label": {3, 1, 1, 1}})
		},
	},
	{
		name: "ip-first", inputs: []string{"data", "label"}, inner: "fc1",
		golden: "e49855d9914d221d",
		build: func(t *testing.T) (*core.Net, map[string]*tensor.Tensor) {
			net := core.NewNet("ip-first", "data", "label").AddLayers(
				core.NewInnerProduct(core.InnerProductConfig{Name: "fc1", Bottom: "data", Top: "fc1",
					NumOutput: 8, BiasTerm: true}),
				core.NewReLU("relu1", "fc1", "fc1", 0),
				core.NewInnerProduct(core.InnerProductConfig{Name: "fc2", Bottom: "fc1", Top: "fc2",
					NumOutput: inputClasses, BiasTerm: true}),
				core.NewSoftmaxLoss("loss", "fc2", "label", "loss"),
			)
			return setupNet(t, net, map[string][4]int{"data": {4, 3, 2, 2}, "label": {4, 1, 1, 1}})
		},
	},
	{
		name: "eltwise-first", inputs: []string{"x", "y", "label"}, inner: "xy",
		golden: "aae18ae146a80e80",
		build: func(t *testing.T) (*core.Net, map[string]*tensor.Tensor) {
			net := core.NewNet("eltwise-first", "x", "y", "label").AddLayers(
				core.NewEltwise("mul", []string{"x", "y"}, "xy", core.EltProd),
				core.NewConv(core.ConvConfig{Name: "conv1", Bottom: "xy", Top: "conv1",
					NumOutput: 4, Kernel: 3, Stride: 2, Pad: 1, Groups: 2, BiasTerm: true}),
				core.NewInnerProduct(core.InnerProductConfig{Name: "fc", Bottom: "conv1", Top: "fc",
					NumOutput: inputClasses, BiasTerm: true}),
				core.NewSoftmaxLoss("loss", "fc", "label", "loss"),
			)
			shapes := map[string][4]int{"x": {2, 2, 5, 5}, "y": {2, 2, 5, 5}, "label": {2, 1, 1, 1}}
			return setupNet(t, net, shapes)
		},
	},
	{
		// Parsed, with inputs named neither data nor label.
		name: "netdef", inputs: []string{"pixels", "mask", "target"}, inner: "sum",
		golden: "227e94094e039117",
		build: func(t *testing.T) (*core.Net, map[string]*tensor.Tensor) {
			def, err := netdef.Parse(strings.NewReader(`name: renamed
input: pixels 3 2 6 6
input: mask 3 2 6 6
input: target 3 1 1 1
eltwise add pixels,mask sum op=sum
conv conv1 sum conv1 out=4 kernel=3 stride=1 pad=1 bias=true
bn bn1 conv1 conv1
relu relu1 conv1 conv1
fc fc1 conv1 fc1 out=3 bias=true
softmaxloss loss fc1,target loss
accuracy acc fc1,target acc topk=1
`))
			if err != nil {
				t.Fatal(err)
			}
			in, err := def.Build()
			if err != nil {
				t.Fatal(err)
			}
			return def.Net, in
		},
	},
}

// TestNetInputsHaveNoGradient pins that Setup gives no declared input
// a gradient, whatever it is named, that a backward pass runs with
// those gradients absent whichever layer reads the inputs first, and
// that the parameter gradients are the bits they were when every
// input still received one.
func TestNetInputsHaveNoGradient(t *testing.T) {
	for _, c := range inputNets {
		t.Run(c.name, func(t *testing.T) {
			net, in := c.build(t)
			for _, name := range c.inputs {
				if in[name] == nil {
					t.Fatalf("input %q not built", name)
				}
				if d := net.Diff(name); d != nil {
					t.Errorf("input %q has a %d-element gradient", name, d.Len())
				}
			}
			if net.Diff(c.inner) == nil {
				t.Errorf("blob %q lost its gradient", c.inner)
			}
			rng := detrand.New(46)
			for _, name := range c.inputs[:len(c.inputs)-1] {
				in[name].FillUniform(rng, -1, 1)
			}
			labels := in[c.inputs[len(c.inputs)-1]]
			for i := range labels.Data {
				labels.Data[i] = float32(i % inputClasses)
			}
			net.ZeroParamDiffs()
			if loss := net.Forward(core.Train); !(loss > 0) {
				t.Fatalf("loss %g", loss)
			}
			net.Backward(core.Train)
			if got := paramDiffDigest(net); got != c.golden {
				t.Errorf("parameter gradients digest %s, want %s", got, c.golden)
			}
		})
	}
}

// paramDiffDigest is the FNV-64a of every learnable parameter's
// gradient bits, in parameter order, as hex.
func paramDiffDigest(net *core.Net) string {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range net.LearnableParams() {
		for _, v := range p.Diff.Data {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
