package core

import (
	"swcaffe/internal/detrand"
	"swcaffe/internal/f32"

	"swcaffe/internal/tensor"
)

// ReLULayer applies max(0, x) elementwise, optionally with a leaky
// negative slope. Supports in-place operation (bottom == top name).
type ReLULayer struct {
	base
	negSlope float32
}

// NewReLU builds a ReLU layer. bottom and top may be the same blob
// name for in-place operation, as Caffe networks conventionally do.
func NewReLU(name, bottom, top string, negSlope float32) *ReLULayer {
	return &ReLULayer{base: newBase(name, KReLU, top, bottom), negSlope: negSlope}
}

func (l *ReLULayer) Setup(bottoms []*tensor.Tensor) ([][4]int, error) {
	in, err := checkOneBottom(l, bottoms)
	if err != nil {
		return nil, err
	}
	l.Elems = in.Len()
	return [][4]int{in.Shape()}, nil
}

// Forward and Backward select per element without a branch (f32.ReLU,
// f32.ReLUGrad): x where 0 < x, negSlope·x elsewhere, NaN and both zeros
// included.

func (l *ReLULayer) Forward(bottoms, tops []*tensor.Tensor, phase Phase) {
	f32.ReLU(tops[0].Data, bottoms[0].Data, l.negSlope)
}

func (l *ReLULayer) Backward(bottoms, tops, topDiffs []*tensor.Tensor, bottomDiffs []*tensor.Tensor, phase Phase) {
	if bottomDiffs[0] == nil {
		return
	}
	f32.ReLUGrad(bottomDiffs[0].Data, bottoms[0].Data, topDiffs[0].Data, l.negSlope)
}

// DropoutLayer zeroes each activation with probability p during
// training and rescales survivors by 1/(1-p) (inverted dropout, as
// Caffe implements it). At test time it is the identity.
type DropoutLayer struct {
	base
	ratio float32
	mask  []float32
	rng   *detrand.RNG
}

// NewDropout builds a dropout layer with drop probability ratio.
func NewDropout(name, bottom, top string, ratio float32) *DropoutLayer {
	return &DropoutLayer{base: newBase(name, KDropout, top, bottom), ratio: ratio, rng: detrand.New(uint64(len(name)) * 31337)}
}

func (l *DropoutLayer) Setup(bottoms []*tensor.Tensor) ([][4]int, error) {
	in, err := checkOneBottom(l, bottoms)
	if err != nil {
		return nil, err
	}
	l.Elems = in.Len()
	if cap(l.mask) < l.Elems {
		l.mask = make([]float32, l.Elems)
	}
	return [][4]int{in.Shape()}, nil
}

// The RNG cursor is per-replica state (ReplicaStateful): each replica
// draws its masks from its own stream.

func (l *DropoutLayer) ReplicaState() any {
	rng := *l.rng
	return &rng
}

func (l *DropoutLayer) SaveReplicaState(s any) { *s.(*detrand.RNG) = *l.rng }

func (l *DropoutLayer) LoadReplicaState(s any) { *l.rng = *s.(*detrand.RNG) }

func (l *DropoutLayer) Forward(bottoms, tops []*tensor.Tensor, phase Phase) {
	in, out := bottoms[0], tops[0]
	if phase == Test || l.ratio == 0 {
		copy(out.Data, in.Data)
		return
	}
	scale := 1 / (1 - l.ratio)
	mask := l.mask[:l.Elems]
	for i, v := range in.Data {
		if l.rng.Float32() < l.ratio {
			mask[i] = 0
			out.Data[i] = 0
		} else {
			mask[i] = scale
			out.Data[i] = v * scale
		}
	}
}

func (l *DropoutLayer) Backward(bottoms, tops, topDiffs []*tensor.Tensor, bottomDiffs []*tensor.Tensor, phase Phase) {
	if bottomDiffs[0] == nil {
		return
	}
	dy, dx := topDiffs[0], bottomDiffs[0]
	if phase == Test || l.ratio == 0 {
		dx.AXPY(1, dy)
		return
	}
	mask := l.mask[:l.Elems]
	for i, m := range mask {
		dx.Data[i] += float32(dy.Data[i] * m)
	}
}

// ScaleLayer multiplies each channel by a learnable factor and adds a
// learnable bias — the affine half of batch normalization, split out
// as Caffe's Scale layer.
type ScaleLayer struct {
	base
	gamma *Param
	beta  *Param
}

// NewScale builds a per-channel scale+bias layer.
func NewScale(name, bottom, top string) *ScaleLayer {
	return &ScaleLayer{base: newBase(name, KScale, top, bottom)}
}

func (l *ScaleLayer) Setup(bottoms []*tensor.Tensor) ([][4]int, error) {
	in, err := checkOneBottom(l, bottoms)
	if err != nil {
		return nil, err
	}
	l.Elems = in.Len()
	if l.gamma == nil {
		l.gamma = NewParam(l.name+".gamma", 1, in.C, 1, 1)
		l.gamma.Data.Fill(1)
		l.beta = NewParam(l.name+".beta", 1, in.C, 1, 1)
		l.beta.DecayMult = 0
	}
	return [][4]int{in.Shape()}, nil
}

func (l *ScaleLayer) Params() []*Param {
	if l.gamma == nil {
		return nil
	}
	return []*Param{l.gamma, l.beta}
}

func (l *ScaleLayer) Forward(bottoms, tops []*tensor.Tensor, phase Phase) {
	in, out := bottoms[0], tops[0]
	hw := in.H * in.W
	for n := 0; n < in.N; n++ {
		for c := 0; c < in.C; c++ {
			g, b := l.gamma.Data.Data[c], l.beta.Data.Data[c]
			off := (n*in.C + c) * hw
			for i := 0; i < hw; i++ {
				out.Data[off+i] = float32(in.Data[off+i]*g) + b
			}
		}
	}
}

func (l *ScaleLayer) Backward(bottoms, tops, topDiffs []*tensor.Tensor, bottomDiffs []*tensor.Tensor, phase Phase) {
	in, dy := bottoms[0], topDiffs[0]
	hw := in.H * in.W
	for n := 0; n < in.N; n++ {
		for c := 0; c < in.C; c++ {
			off := (n*in.C + c) * hw
			var dg, db float32
			for i := 0; i < hw; i++ {
				dg += float32(dy.Data[off+i] * in.Data[off+i])
				db += dy.Data[off+i]
			}
			l.gamma.Diff.Data[c] += dg
			l.beta.Diff.Data[c] += db
			if bottomDiffs[0] != nil {
				g := l.gamma.Data.Data[c]
				for i := 0; i < hw; i++ {
					bottomDiffs[0].Data[off+i] += float32(dy.Data[off+i] * g)
				}
			}
		}
	}
}
