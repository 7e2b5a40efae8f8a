// Package models builds the five networks of the paper's evaluation
// (Sec. VI-B, Table III): AlexNet (with the paper's LRN→BatchNorm
// refinement), VGG-16, VGG-19, ResNet-50 and GoogLeNet.
//
// Each model is a ModelSpec: a shape-resolved layer graph that can be
// (a) priced on any perf.Device without allocating activations — a
// VGG-16 batch-128 blob set would not fit host memory — and
// (b) materialized into a functional core.Net at a small batch by the
// package's numerical tests. Both views come from the same builder, so
// they cannot drift apart.
package models

import (
	"fmt"
	"sync"

	"swcaffe/internal/core"
	"swcaffe/internal/perf"
	"swcaffe/internal/swdnn"
)

// Kind enumerates layer kinds a spec can hold.
type Kind uint8

// Layer kinds.
const (
	KConv Kind = iota
	KPool
	KReLU
	KBatchNorm
	KScale
	KLRN
	KDropout
	KInnerProduct
	KConcat
	KEltwise
	KSoftmaxLoss
	KAccuracy
)

var kindNames = map[Kind]string{
	KConv: "Convolution", KPool: "Pooling", KReLU: "ReLU",
	KBatchNorm: "BatchNorm", KScale: "Scale", KLRN: "LRN",
	KDropout: "Dropout", KInnerProduct: "InnerProduct",
	KConcat: "Concat", KEltwise: "Eltwise",
	KSoftmaxLoss: "SoftmaxWithLoss", KAccuracy: "Accuracy",
}

func (k Kind) String() string { return kindNames[k] }

// LayerSpec is one shape-resolved layer.
type LayerSpec struct {
	Kind    Kind
	Name    string
	Bottoms []string
	Top     string

	// Static configuration.
	NumOutput  int
	Kernel     int
	Stride     int
	Pad        int
	PoolMethod core.PoolMethod
	Global     bool
	DropRatio  float32
	BiasTerm   bool

	// Shape-resolved costing inputs.
	Conv     swdnn.ConvShape
	Pool     swdnn.PoolShape
	B        int
	Cin      int
	Cout     int
	Elems    int
	OutShape [4]int
}

// Params returns the learnable parameter count of the layer.
func (l *LayerSpec) Params() int64 {
	switch l.Kind {
	case KConv:
		p := int64(l.Conv.No) * int64(l.Conv.Ni) * int64(l.Conv.K) * int64(l.Conv.K)
		if l.BiasTerm {
			p += int64(l.Conv.No)
		}
		return p
	case KInnerProduct:
		p := int64(l.Cin) * int64(l.Cout)
		if l.BiasTerm {
			p += int64(l.Cout)
		}
		return p
	case KScale:
		return 2 * int64(l.OutShape[1])
	default:
		return 0
	}
}

// Cost prices the layer on a device.
func (l *LayerSpec) Cost(dev perf.Device) core.LayerCost {
	switch l.Kind {
	case KConv:
		fwd := dev.Conv(l.Conv, swdnn.Forward)
		bwd := dev.Conv(l.Conv, swdnn.BackwardWeight)
		// The first layer propagates no gradient into the data blob;
		// the host pass follows the same rule (core.Net.Setup gives no
		// declared input a gradient).
		if len(l.Bottoms) == 0 || l.Bottoms[0] != "data" {
			bwd += dev.Conv(l.Conv, swdnn.BackwardInput)
		}
		return core.LayerCost{Forward: fwd, Backward: bwd}
	case KInnerProduct:
		fwd := dev.InnerProduct(l.B, l.Cin, l.Cout, swdnn.Forward)
		bwd := dev.InnerProduct(l.B, l.Cin, l.Cout, swdnn.BackwardWeight) +
			dev.InnerProduct(l.B, l.Cin, l.Cout, swdnn.BackwardInput)
		return core.LayerCost{Forward: fwd, Backward: bwd}
	case KPool:
		t := dev.Pool(l.Pool)
		return core.LayerCost{Forward: t, Backward: t}
	case KReLU:
		return core.LayerCost{Forward: dev.Elementwise(l.Elems, 1, 1, 1), Backward: dev.Elementwise(l.Elems, 2, 1, 1)}
	case KBatchNorm:
		return core.LayerCost{Forward: dev.BatchNorm(l.Elems), Backward: dev.BatchNorm(l.Elems)}
	case KScale:
		return core.LayerCost{Forward: dev.Elementwise(l.Elems, 1, 1, 2), Backward: dev.Elementwise(l.Elems, 3, 1, 4)}
	case KLRN:
		return core.LayerCost{Forward: dev.Elementwise(l.Elems, 1, 2, 15), Backward: dev.Elementwise(l.Elems, 4, 1, 20)}
	case KDropout:
		return core.LayerCost{Forward: dev.Elementwise(l.Elems, 1, 2, 2), Backward: dev.Elementwise(l.Elems, 2, 1, 1)}
	case KConcat, KEltwise:
		k := len(l.Bottoms)
		return core.LayerCost{Forward: dev.Elementwise(l.Elems, k, 1, float64(k-1)), Backward: dev.Elementwise(l.Elems, 1, k, float64(k-1))}
	case KSoftmaxLoss:
		return core.LayerCost{Forward: dev.Softmax(l.B, l.Cout), Backward: dev.Elementwise(l.B*l.Cout, 2, 1, 2)}
	default:
		return core.LayerCost{}
	}
}

// ModelSpec is a shape-resolved network description. There is one per
// (name, batch) in the process and every constructor and ByName hand
// out that same pointer, so a spec is immutable once built: read it,
// price it, materialize it with Net (each call builds a net that owns
// its own tensors), but never write through it.
type ModelSpec struct {
	Name     string
	Batch    int
	InputDim [4]int // (B, C, H, W) of the data blob
	Classes  int
	Layers   []LayerSpec
}

// ParamCount returns the total learnable parameter count.
func (m *ModelSpec) ParamCount() int64 {
	var total int64
	for i := range m.Layers {
		total += m.Layers[i].Params()
	}
	return total
}

// ParamBytes returns the all-reduce payload size in bytes (float32).
func (m *ModelSpec) ParamBytes() int64 { return m.ParamCount() * 4 }

// Cost prices one full training iteration on a device: per-layer costs
// in layer order plus the total.
func (m *ModelSpec) Cost(dev perf.Device) (perLayer []core.LayerCost, total core.LayerCost) {
	perLayer = make([]core.LayerCost, len(m.Layers))
	return perLayer, m.price(dev, perLayer)
}

// price sums the layers' costs in layer order, storing each in
// perLayer when it is non-nil.
func (m *ModelSpec) price(dev perf.Device, perLayer []core.LayerCost) (total core.LayerCost) {
	for i := range m.Layers {
		c := m.Layers[i].Cost(dev)
		if perLayer != nil {
			perLayer[i] = c
		}
		total.Forward += c.Forward
		total.Backward += c.Backward
	}
	return total
}

// totalKey names one network priced on one device's parameters.
type totalKey struct {
	spec *ModelSpec
	dev  any // perf.Device.Key
}

var totals sync.Map // totalKey -> core.LayerCost

// Total is Cost's total, bit for bit, without the per-layer slice. A
// spec never changes and a device's prices depend only on its Key, so
// each (spec, device key) is priced once per process and every later
// call returns that sum: the evaluation prices each network once, not
// once per figure, sweep point and ablation that asks for it.
func (m *ModelSpec) Total(dev perf.Device) core.LayerCost {
	key := totalKey{m, dev.Key()}
	if t, ok := totals.Load(key); ok {
		return t.(core.LayerCost)
	}
	t := m.price(dev, nil)
	totals.Store(key, t)
	return t
}

// IterationTime prices one full training iteration including the
// device's host data path for the batch.
func (m *ModelSpec) IterationTime(dev perf.Device) float64 {
	return m.Total(dev).Total() + dev.InputOverhead(m.Batch)
}

// Flops returns the forward-pass multiply-add flops of the model.
func (m *ModelSpec) Flops() float64 {
	var total float64
	for i := range m.Layers {
		l := &m.Layers[i]
		switch l.Kind {
		case KConv:
			total += l.Conv.Flops()
		case KInnerProduct:
			total += 2 * float64(l.B) * float64(l.Cin) * float64(l.Cout)
		}
	}
	return total
}

// --- builder ----------------------------------------------------------

type specKey struct {
	name  string
	batch int
}

var specs sync.Map // specKey -> *ModelSpec

// shared returns the process's one spec for (name, batch), building it
// on first use. A hit is lock-free; a racing first miss builds twice
// and keeps one, which is safe because the builders are pure.
func shared(name string, batch int, build func(name string, batch int) *ModelSpec) *ModelSpec {
	key := specKey{name, batch}
	m, ok := specs.Load(key)
	if !ok {
		m, _ = specs.LoadOrStore(key, build(name, batch))
	}
	return m.(*ModelSpec)
}

type builder struct {
	m      *ModelSpec
	shapes map[string][4]int // blob name -> shape; dropped with the builder
}

func newBuilder(name string, batch, channels, size, classes int) *builder {
	m := &ModelSpec{
		Name: name, Batch: batch, Classes: classes,
		InputDim: [4]int{batch, channels, size, size},
	}
	return &builder{m: m, shapes: map[string][4]int{"data": m.InputDim, "label": {batch, 1, 1, 1}}}
}

func (b *builder) shape(blob string) [4]int {
	s, ok := b.shapes[blob]
	if !ok {
		panic(fmt.Sprintf("models: %s: blob %q undefined", b.m.Name, blob))
	}
	return s
}

func (b *builder) add(l LayerSpec, out [4]int) {
	l.OutShape = out
	b.shapes[l.Top] = out
	b.m.Layers = append(b.m.Layers, l)
}

func elems(s [4]int) int { return s[0] * s[1] * s[2] * s[3] }

// conv adds a convolution (+ optional bias); returns the top name.
func (b *builder) conv(name, bottom string, out, k, s, p int) string {
	in := b.shape(bottom)
	cs := swdnn.ConvShape{B: in[0], Ni: in[1], Ri: in[2], Ci: in[3], No: out, K: k, S: s, P: p}
	ro, co := cs.OutDims()
	b.add(LayerSpec{Kind: KConv, Name: name, Bottoms: []string{bottom}, Top: name,
		NumOutput: out, Kernel: k, Stride: s, Pad: p, BiasTerm: true, Conv: cs},
		[4]int{in[0], out, ro, co})
	return name
}

func (b *builder) pool(name, bottom string, method core.PoolMethod, k, s, p int, global bool) string {
	in := b.shape(bottom)
	ps := swdnn.PoolShape{B: in[0], C: in[1], Ri: in[2], Ci: in[3], K: k, S: s, Pad: p}
	if global {
		ps.K, ps.S, ps.Pad = in[2], 1, 0
	}
	ro, co := ps.OutDims()
	b.add(LayerSpec{Kind: KPool, Name: name, Bottoms: []string{bottom}, Top: name,
		PoolMethod: method, Kernel: ps.K, Stride: ps.S, Pad: ps.Pad, Global: global, Pool: ps},
		[4]int{in[0], in[1], ro, co})
	return name
}

func (b *builder) relu(name, bottom string) string {
	in := b.shape(bottom)
	b.add(LayerSpec{Kind: KReLU, Name: name, Bottoms: []string{bottom}, Top: name, Elems: elems(in)}, in)
	return name
}

func (b *builder) bn(name, bottom string) string {
	in := b.shape(bottom)
	b.add(LayerSpec{Kind: KBatchNorm, Name: name, Bottoms: []string{bottom}, Top: name, Elems: elems(in)}, in)
	return name
}

func (b *builder) scale(name, bottom string) string {
	in := b.shape(bottom)
	b.add(LayerSpec{Kind: KScale, Name: name, Bottoms: []string{bottom}, Top: name, Elems: elems(in)}, in)
	return name
}

func (b *builder) lrn(name, bottom string) string {
	in := b.shape(bottom)
	b.add(LayerSpec{Kind: KLRN, Name: name, Bottoms: []string{bottom}, Top: name, Elems: elems(in)}, in)
	return name
}

func (b *builder) dropout(name, bottom string, ratio float32) string {
	in := b.shape(bottom)
	b.add(LayerSpec{Kind: KDropout, Name: name, Bottoms: []string{bottom}, Top: name,
		DropRatio: ratio, Elems: elems(in)}, in)
	return name
}

func (b *builder) fc(name, bottom string, out int) string {
	in := b.shape(bottom)
	cin := in[1] * in[2] * in[3]
	b.add(LayerSpec{Kind: KInnerProduct, Name: name, Bottoms: []string{bottom}, Top: name,
		NumOutput: out, BiasTerm: true, B: in[0], Cin: cin, Cout: out},
		[4]int{in[0], out, 1, 1})
	return name
}

func (b *builder) concat(name string, bottoms ...string) string {
	first := b.shape(bottoms[0])
	total := 0
	for _, bt := range bottoms {
		total += b.shape(bt)[1]
	}
	out := [4]int{first[0], total, first[2], first[3]}
	b.add(LayerSpec{Kind: KConcat, Name: name, Bottoms: append([]string(nil), bottoms...), Top: name,
		Elems: elems(out)}, out)
	return name
}

func (b *builder) eltsum(name string, bottoms ...string) string {
	in := b.shape(bottoms[0])
	b.add(LayerSpec{Kind: KEltwise, Name: name, Bottoms: append([]string(nil), bottoms...), Top: name,
		Elems: elems(in)}, in)
	return name
}

func (b *builder) softmaxLoss(name, scores string) string {
	in := b.shape(scores)
	b.add(LayerSpec{Kind: KSoftmaxLoss, Name: name, Bottoms: []string{scores, "label"}, Top: name,
		B: in[0], Cout: in[1] * in[2] * in[3]}, [4]int{1, 1, 1, 1})
	return name
}

// convBNReLU is the conv→bn→scale→relu motif of ResNet (in-place tops).
func (b *builder) convBNReLU(name, bottom string, out, k, s, p int, withReLU bool) string {
	t := b.conv(name, bottom, out, k, s, p)
	t2 := b.bn(name+"/bn", t)
	t3 := b.scale(name+"/scale", t2)
	if withReLU {
		return b.relu(name+"/relu", t3)
	}
	return t3
}

var registry = map[string]func(batch int) *ModelSpec{}
