package core

import (
	"fmt"
	"strings"

	"swcaffe/internal/perf"
	"swcaffe/internal/tensor"
)

// Net wires layers into a directed acyclic graph over named blobs and
// runs the forward and backward propagations (paper Sec. II-C: the
// "net" optimization level). Layers are executed in the order given,
// which must be topological — the builders in internal/models emit
// layers in that order, as Caffe prototxts do.
type Net struct {
	name   string
	layers []Layer

	inputs []string // externally-fed blobs (data, labels)
	blobs  map[string]*tensor.Tensor
	diffs  map[string]*tensor.Tensor

	// needsDiff marks the blobs that get a gradient (see
	// markGradientPaths).
	needsDiff map[string]bool
	lossBlob  string

	// wired[i] is layer i's blobs and gradients, resolved by Setup — the
	// only writer of blobs and diffs — so a pass indexes instead of
	// looking names up.
	wired []layerBlobs

	// Param lookups are on the solver-update and gradient-pack hot
	// paths; the layer graph is static after construction, so the
	// flattened slices are built once (invalidated by AddLayer).
	paramsCache    []*Param
	learnableCache []*Param

	// stateful is the layers with per-replica state (see
	// ReplicaStateful), in layer order; resolved by Setup.
	stateful []ReplicaStateful
}

// layerBlobs is one layer's view of the blob graph. A gradient entry is
// nil where the blob has none (a declared input).
type layerBlobs struct {
	bottoms, tops, bottomDiffs, topDiffs []*tensor.Tensor
}

// NewNet creates an empty net with the given externally-fed input
// blobs. Call AddLayer for each layer in topological order, then Setup
// with the input tensors.
func NewNet(name string, inputs ...string) *Net {
	return &Net{
		name:      name,
		inputs:    append([]string(nil), inputs...),
		blobs:     make(map[string]*tensor.Tensor),
		diffs:     make(map[string]*tensor.Tensor),
		needsDiff: make(map[string]bool),
	}
}

// Name returns the net's name.
func (n *Net) Name() string { return n.name }

// Layers returns the layer list in execution order.
func (n *Net) Layers() []Layer { return n.layers }

// AddLayer appends a layer. Layers must arrive in topological order.
func (n *Net) AddLayer(l Layer) *Net {
	n.layers = append(n.layers, l)
	n.paramsCache, n.learnableCache = nil, nil
	return n
}

// AddLayers appends several layers in order.
func (n *Net) AddLayers(ls ...Layer) *Net {
	for _, l := range ls {
		n.AddLayer(l)
	}
	return n
}

// Setup binds the input tensors, propagates shapes through every layer
// and allocates all intermediate blobs and gradients. The map must
// contain one tensor per declared input.
func (n *Net) Setup(inputs map[string]*tensor.Tensor) error {
	for _, in := range n.inputs {
		t, ok := inputs[in]
		if !ok {
			return fmt.Errorf("core: net %q: missing input blob %q", n.name, in)
		}
		n.blobs[in] = t
	}
	for li, l := range n.layers {
		bottoms := make([]*tensor.Tensor, len(l.Bottoms()))
		for i, bn := range l.Bottoms() {
			b, ok := n.blobs[bn]
			if !ok {
				return fmt.Errorf("core: net %q: layer %q (#%d) consumes undefined blob %q",
					n.name, l.Name(), li, bn)
			}
			bottoms[i] = b
		}
		shapes, err := l.Setup(bottoms)
		if err != nil {
			return fmt.Errorf("core: net %q: %w", n.name, err)
		}
		if len(shapes) != len(l.Tops()) {
			return fmt.Errorf("core: net %q: layer %q returned %d shapes for %d tops",
				n.name, l.Name(), len(shapes), len(l.Tops()))
		}
		for i, tn := range l.Tops() {
			sh := shapes[i]
			if existing, ok := n.blobs[tn]; ok {
				// In-place layer (e.g. ReLU bottom==top): shape must match.
				if existing.Shape() != sh {
					return fmt.Errorf("core: net %q: layer %q reuses blob %q with shape %v != %v",
						n.name, l.Name(), tn, sh, existing.Shape())
				}
				continue
			}
			n.blobs[tn] = tensor.New(sh[0], sh[1], sh[2], sh[3])
		}
	}
	n.markGradientPaths()
	// Allocate gradients for blobs that need them.
	for name, b := range n.blobs {
		if n.needsDiff[name] {
			n.diffs[name] = tensor.New(b.N, b.C, b.H, b.W)
		}
	}
	// Default loss blob: the top of the last loss-typed layer.
	for _, l := range n.layers {
		if strings.Contains(l.Type(), "Loss") {
			n.lossBlob = l.Tops()[0]
		}
	}
	// Build the param caches and the per-layer blob lists while
	// construction is still single-threaded; afterwards concurrent
	// readers see fixed slices.
	n.Params()
	n.LearnableParams()
	n.wired = make([]layerBlobs, len(n.layers))
	n.stateful = nil
	for i, l := range n.layers {
		n.wired[i] = layerBlobs{
			bottoms:     gather(l.Bottoms(), n.blobs),
			tops:        gather(l.Tops(), n.blobs),
			bottomDiffs: gather(l.Bottoms(), n.diffs),
			topDiffs:    gather(l.Tops(), n.diffs),
		}
		if rs, ok := l.(ReplicaStateful); ok {
			n.stateful = append(n.stateful, rs)
		}
	}
	return nil
}

// ReplicaState is one replica's copy of the per-replica state of a
// net's layers (see ReplicaStateful): one entry per such layer, in
// layer order. It is nil for a net with no such layer, and saving or
// loading it is then free.
type ReplicaState []any

// ReplicaState returns a copy of the net's current per-replica state.
func (n *Net) ReplicaState() ReplicaState {
	if len(n.stateful) == 0 {
		return nil
	}
	s := make(ReplicaState, len(n.stateful))
	for i, l := range n.stateful {
		s[i] = l.ReplicaState()
	}
	return s
}

// SaveReplicaState overwrites s, a value this net's ReplicaState
// returned, with the net's current per-replica state.
func (n *Net) SaveReplicaState(s ReplicaState) {
	for i, l := range n.stateful {
		l.SaveReplicaState(s[i])
	}
}

// LoadReplicaState makes s the net's per-replica state: the net then
// continues as the replica s was saved from.
func (n *Net) LoadReplicaState(s ReplicaState) {
	for i, l := range n.stateful {
		l.LoadReplicaState(s[i])
	}
}

// markGradientPaths computes which blobs get a gradient: every blob
// but the declared inputs and the tops of Accuracy layers. No gradient
// flows into an input (Caffe's propagate_down to the data layer is
// false, and Cost prices no BackwardInput for a layer reading
// "data"), so the layer reading one finds a nil bottom gradient and
// skips that work. Every other blob gets one, whether or not some
// parameter lies below it.
func (n *Net) markGradientPaths() {
	skip := make(map[string]bool, len(n.inputs))
	for _, in := range n.inputs {
		skip[in] = true
	}
	for _, l := range n.layers {
		if l.Type() == "Accuracy" {
			skip[l.Tops()[0]] = true
		}
	}
	for name := range n.blobs {
		if !skip[name] {
			n.needsDiff[name] = true
		}
	}
}

// Blob returns a blob tensor by name, or nil.
func (n *Net) Blob(name string) *tensor.Tensor { return n.blobs[name] }

// Params returns every parameter of every layer, in layer order. The
// slice is cached (callers must not mutate it).
func (n *Net) Params() []*Param {
	if n.paramsCache == nil {
		out := []*Param{}
		for _, l := range n.layers {
			out = append(out, l.Params()...)
		}
		n.paramsCache = out
	}
	return n.paramsCache
}

// LearnableParams returns parameters with LRMult > 0 (excludes
// batch-norm running statistics). The slice is cached (callers must
// not mutate it).
func (n *Net) LearnableParams() []*Param {
	if n.learnableCache == nil {
		out := []*Param{}
		for _, p := range n.Params() {
			if p.LRMult > 0 {
				out = append(out, p)
			}
		}
		n.learnableCache = out
	}
	return n.learnableCache
}

// ParamBytes returns the total byte size of learnable parameters —
// the all-reduce payload of distributed training (paper Sec. V-A
// quotes 232.6 MB for AlexNet and 97.7 MB for ResNet-50).
func (n *Net) ParamBytes() int64 {
	var total int64
	for _, p := range n.LearnableParams() {
		total += p.Data.Bytes()
	}
	return total
}

// Forward runs one forward pass and returns the loss (0 when the net
// has no loss layer).
func (n *Net) Forward(phase Phase) float32 {
	for i, l := range n.layers {
		w := &n.wired[i]
		l.Forward(w.bottoms, w.tops, phase)
	}
	if n.lossBlob != "" {
		return n.blobs[n.lossBlob].Data[0]
	}
	return 0
}

// Backward runs one backward pass. Blob gradients are zeroed first;
// the loss blob's gradient is seeded with 1.
func (n *Net) Backward(phase Phase) {
	n.BackwardEach(phase, nil)
}

// BackwardEach runs the backward pass, invoking onLayer (when non-nil)
// after each layer's backward completes, with the layer's index in
// execution (forward) order. Layers run last-to-first, so onLayer sees
// strictly decreasing indices — the hook distributed trainers use to
// flush gradient buckets while the remaining backward continues
// (paper Sec. V-A's communication/computation overlap).
func (n *Net) BackwardEach(phase Phase, onLayer func(li int)) {
	for _, d := range n.diffs {
		d.Zero()
	}
	if n.lossBlob != "" {
		if d := n.diffs[n.lossBlob]; d != nil {
			d.Data[0] = 1
		}
	}
	for i := len(n.layers) - 1; i >= 0; i-- {
		w := &n.wired[i]
		n.layers[i].Backward(w.bottoms, w.tops, w.topDiffs, w.bottomDiffs, phase)
		if onLayer != nil {
			onLayer(i)
		}
	}
}

func gather(names []string, from map[string]*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(names))
	for i, name := range names {
		out[i] = from[name] // nil is allowed (an input's diff)
	}
	return out
}

// ZeroParamDiffs clears all parameter gradients.
func (n *Net) ZeroParamDiffs() {
	for _, p := range n.Params() {
		p.Diff.Zero()
	}
}

// Cost prices one full training iteration (forward + backward of every
// layer) on a device. It returns per-layer costs in layer order plus
// the totals.
func (n *Net) Cost(dev perf.Device) (perLayer []LayerCost, total LayerCost) {
	perLayer = make([]LayerCost, len(n.layers))
	for i, l := range n.layers {
		c := l.Cost(dev)
		perLayer[i] = c
		total.Forward += c.Forward
		total.Backward += c.Backward
	}
	return
}

// PackGradients copies every learnable parameter gradient into one
// contiguous vector — the gradient-packing optimization of paper
// Sec. V-A ("we pack the gradients of all layers together to perform
// all-reduce after backward propagation"). The returned slice is
// reused across calls.
func (n *Net) PackGradients(buf []float32) []float32 {
	params := n.LearnableParams()
	var total int
	for _, p := range params {
		total += p.Diff.Len()
	}
	if cap(buf) < total {
		buf = make([]float32, total)
	}
	buf = buf[:total]
	off := 0
	for _, p := range params {
		copy(buf[off:], p.Diff.Data)
		off += p.Diff.Len()
	}
	return buf
}

// UnpackGradients scatters a packed gradient vector back into the
// parameter diffs (after the all-reduce).
func (n *Net) UnpackGradients(buf []float32) {
	off := 0
	for _, p := range n.LearnableParams() {
		copy(p.Diff.Data, buf[off:off+p.Diff.Len()])
		off += p.Diff.Len()
	}
	if off != len(buf) {
		panic(fmt.Sprintf("core: UnpackGradients length mismatch: %d != %d", off, len(buf)))
	}
}
