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

// base carries the bookkeeping every layer shares.
type base struct {
	name    string
	typ     string
	bottoms []string
	tops    []string
}

func (b *base) Name() string      { return b.name }
func (b *base) Type() string      { return b.typ }
func (b *base) Bottoms() []string { return b.bottoms }
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
