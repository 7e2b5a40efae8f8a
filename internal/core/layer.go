// Package core is the swCaffe framework itself: Caffe's three-level
// architecture (layers, net, solver — paper Sec. II-C) rebuilt around
// the SW26010 kernel plans. Layers implement the numerical algorithm
// of each neural-network operation plus a costing hook that prices the
// operation on a target device; Net wires layers into a DAG over named
// blobs and runs the forward/backward propagations; Solver implements
// parameter optimization (SGD) and hosts the distributed-training
// extension points (paper Sec. V).
package core

import (
	"fmt"

	"swcaffe/internal/perf"
	"swcaffe/internal/swdnn"
	"swcaffe/internal/tensor"
)

// Phase distinguishes training from inference behaviour (dropout,
// batch-norm statistics).
type Phase uint8

const (
	Train Phase = iota
	Test
)

// Param is one learnable parameter blob with its gradient and the
// Caffe-style per-parameter learning-rate/decay multipliers.
type Param struct {
	Name      string
	Data      *tensor.Tensor
	Diff      *tensor.Tensor
	LRMult    float64
	DecayMult float64
}

// NewParam allocates a parameter and its gradient of the given shape.
func NewParam(name string, n, c, h, w int) *Param {
	return &Param{
		Name:      name,
		Data:      tensor.New(n, c, h, w),
		Diff:      tensor.New(n, c, h, w),
		LRMult:    1,
		DecayMult: 1,
	}
}

// LayerCost is the device-time estimate of one layer pass.
type LayerCost struct {
	Forward  float64
	Backward float64
}

// Total returns forward + backward time.
func (c LayerCost) Total() float64 { return c.Forward + c.Backward }

// Kind is a layer kind; its String is the Caffe type name.
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

var kindNames = [...]string{
	KConv: "Convolution", KPool: "Pooling", KReLU: "ReLU",
	KBatchNorm: "BatchNorm", KScale: "Scale", KLRN: "LRN",
	KDropout: "Dropout", KInnerProduct: "InnerProduct",
	KConcat: "Concat", KEltwise: "Eltwise",
	KSoftmaxLoss: "SoftmaxWithLoss", KAccuracy: "Accuracy",
}

func (k Kind) String() string { return kindNames[k] }

// LayerShape is what pricing a layer needs: its kind, its bottoms and
// the sizes fixed once shapes are known. A core layer fills it in
// Setup and a models.LayerSpec embeds one its builder fills, so both
// price a kind through the one switch in Cost.
type LayerShape struct {
	Kind    Kind
	Bottoms []string

	Conv   swdnn.ConvShape // one convolution group's geometry
	Groups int             // convolution groups
	Pool   swdnn.PoolShape
	// B and Cin are an inner product's batch and input size; Cout is
	// its output count, or the class count of a softmax or accuracy
	// layer over B images.
	B, Cin, Cout int
	Elems        int // top elements of every other kind
}

// lrnSize is the channel window of every LRN layer (AlexNet's 5).
const lrnSize = 5

// Cost prices one forward and one backward pass of the layer on dev.
// Products are rounded explicitly, so no target fuses them into a
// multiply-add.
func (s *LayerShape) Cost(dev perf.Device) LayerCost {
	switch s.Kind {
	case KConv:
		g := float64(s.Groups)
		fwd := float64(g * dev.Conv(s.Conv, swdnn.Forward))
		bwd := float64(g * dev.Conv(s.Conv, swdnn.BackwardWeight))
		// No gradient flows into the data blob; the host pass follows
		// the same rule, as Net.Setup gives no declared input a
		// gradient.
		if s.Bottoms[0] != "data" {
			bwd += float64(g * dev.Conv(s.Conv, swdnn.BackwardInput))
		}
		return LayerCost{Forward: fwd, Backward: bwd}
	case KInnerProduct:
		fwd := dev.InnerProduct(s.B, s.Cin, s.Cout, swdnn.Forward)
		bwd := dev.InnerProduct(s.B, s.Cin, s.Cout, swdnn.BackwardWeight) +
			dev.InnerProduct(s.B, s.Cin, s.Cout, swdnn.BackwardInput)
		return LayerCost{Forward: fwd, Backward: bwd}
	case KPool:
		t := dev.Pool(s.Pool)
		return LayerCost{Forward: t, Backward: t}
	case KReLU:
		return LayerCost{Forward: dev.Elementwise(s.Elems, 1, 1, 1), Backward: dev.Elementwise(s.Elems, 2, 1, 1)}
	case KBatchNorm:
		return LayerCost{Forward: dev.BatchNorm(s.Elems), Backward: dev.BatchNorm(s.Elems)}
	case KScale:
		return LayerCost{Forward: dev.Elementwise(s.Elems, 1, 1, 2), Backward: dev.Elementwise(s.Elems, 3, 1, 4)}
	case KLRN:
		return LayerCost{
			Forward:  dev.Elementwise(s.Elems, 1, 2, 2*lrnSize+5),
			Backward: dev.Elementwise(s.Elems, 4, 1, 3*lrnSize+5),
		}
	case KDropout:
		return LayerCost{Forward: dev.Elementwise(s.Elems, 1, 2, 2), Backward: dev.Elementwise(s.Elems, 2, 1, 1)}
	case KConcat, KEltwise:
		// A concat is priced as a k-way sum: it reads k·Elems and does
		// k−1 flops an element, where the copy reads Elems and adds
		// nothing (ROADMAP item 4).
		k := len(s.Bottoms)
		return LayerCost{Forward: dev.Elementwise(s.Elems, k, 1, float64(k-1)), Backward: dev.Elementwise(s.Elems, 1, k, float64(k-1))}
	case KSoftmaxLoss:
		return LayerCost{Forward: dev.Softmax(s.B, s.Cout), Backward: dev.Elementwise(s.B*s.Cout, 2, 1, 2)}
	case KAccuracy:
		return LayerCost{Forward: dev.Elementwise(s.B*s.Cout, 1, 0, 1)}
	}
	panic(fmt.Sprintf("core: no price for layer kind %d", s.Kind))
}

// Layer is one network operation. Shapes are fixed at Setup time.
//
// Backward contract: bottomDiff tensors arrive zeroed or partially
// accumulated; layers must ADD their contribution (+=), never
// overwrite, so that blobs consumed by several layers (ResNet skip
// connections, inception branches) receive the sum of gradients.
// Parameter diffs likewise accumulate; the solver clears them.
type Layer interface {
	// Name returns the unique layer instance name.
	Name() string
	// Type returns the layer kind ("Convolution", "ReLU", ...).
	Type() string
	// Bottoms and Tops return the names of consumed/produced blobs.
	Bottoms() []string
	Tops() []string
	// Setup validates bottom shapes and returns the top shapes.
	Setup(bottoms []*tensor.Tensor) ([][4]int, error)
	// Forward computes tops from bottoms.
	Forward(bottoms, tops []*tensor.Tensor, phase Phase)
	// Backward accumulates bottom gradients (and parameter gradients)
	// given top gradients. Entries of bottomDiffs may be nil when that
	// input needs no gradient (e.g. labels).
	Backward(bottoms, tops, topDiffs []*tensor.Tensor, bottomDiffs []*tensor.Tensor, phase Phase)
	// Params returns the learnable parameters (possibly empty).
	Params() []*Param
	// Cost prices the layer on a device using the shapes fixed at
	// Setup.
	Cost(dev perf.Device) LayerCost
}

// ReplicaStateful is the optional interface of a layer whose training
// pass mutates state that belongs to one data-parallel replica, not to
// the model: state a replica advances from its own shard or its own
// random stream — batch-norm running statistics, a dropout RNG cursor —
// as opposed to parameters, which every replica updates identically,
// and workspace, which a pass writes before it reads. A trainer that
// runs several replicas through one Net keeps one copy of this state
// per replica and swaps it around each pass (Net.ReplicaState,
// Net.LoadReplicaState, Net.SaveReplicaState); everything else a layer
// holds it may share.
type ReplicaStateful interface {
	// ReplicaState returns a copy of the layer's current per-replica
	// state. Call it after Setup.
	ReplicaState() any
	// SaveReplicaState overwrites s, a value this layer's ReplicaState
	// returned, with the current state; LoadReplicaState makes s the
	// current state.
	SaveReplicaState(s any)
	LoadReplicaState(s any)
}

// base carries the bookkeeping every layer shares. Its LayerShape's
// Cost is the layer's Cost.
type base struct {
	LayerShape
	name string
	tops []string
}

func newBase(name string, k Kind, top string, bottoms ...string) base {
	return base{LayerShape: LayerShape{Kind: k, Bottoms: bottoms}, name: name, tops: []string{top}}
}

func (b *base) Name() string      { return b.name }
func (b *base) Type() string      { return b.Kind.String() }
func (b *base) Bottoms() []string { return b.LayerShape.Bottoms }
func (b *base) Tops() []string    { return b.tops }
func (b *base) Params() []*Param  { return nil }

func shapeErr(layer, what string, got [4]int) error {
	return fmt.Errorf("core: layer %q: unexpected %s shape %v", layer, what, got)
}

func checkOneBottom(l Layer, bottoms []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(bottoms) != 1 {
		return nil, fmt.Errorf("core: layer %q (%s) wants 1 bottom, got %d", l.Name(), l.Type(), len(bottoms))
	}
	return bottoms[0], nil
}
