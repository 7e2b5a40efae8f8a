package core

import (
	"math"

	"swcaffe/internal/tensor"
)

// BatchNormLayer normalizes each channel over the (N, H, W) extent:
// y = (x - mean) / sqrt(var + eps). Like Caffe's BatchNorm it carries
// running statistics for the test phase; pair it with a ScaleLayer for
// the learnable affine transform. The paper replaces AlexNet's LRN
// with BN "without affecting the accuracy" (Sec. VI-A).
type BatchNormLayer struct {
	base
	eps      float32
	momentum float32
	c        int

	runningMean *Param
	runningVar  *Param

	// saved statistics from the training forward pass
	mean, invStd []float32
	xhat         []float32
}

// NewBatchNorm builds a batch-normalization layer.
func NewBatchNorm(name, bottom, top string) *BatchNormLayer {
	return &BatchNormLayer{base: newBase(name, KBatchNorm, top, bottom), eps: 1e-5, momentum: 0.9}
}

func (l *BatchNormLayer) Setup(bottoms []*tensor.Tensor) ([][4]int, error) {
	in, err := checkOneBottom(l, bottoms)
	if err != nil {
		return nil, err
	}
	l.c = in.C
	l.Elems = in.Len()
	if l.runningMean == nil {
		l.runningMean = NewParam(l.name+".mean", 1, in.C, 1, 1)
		l.runningVar = NewParam(l.name+".var", 1, in.C, 1, 1)
		l.runningVar.Data.Fill(1)
		// Running statistics are not learned by gradient descent.
		l.runningMean.LRMult = 0
		l.runningMean.DecayMult = 0
		l.runningVar.LRMult = 0
		l.runningVar.DecayMult = 0
	}
	if cap(l.mean) < in.C {
		l.mean = make([]float32, in.C)
		l.invStd = make([]float32, in.C)
	}
	if cap(l.xhat) < l.Elems {
		l.xhat = make([]float32, l.Elems)
	}
	return [][4]int{in.Shape()}, nil
}

func (l *BatchNormLayer) Params() []*Param {
	if l.runningMean == nil {
		return nil
	}
	return []*Param{l.runningMean, l.runningVar}
}

// The running statistics are per-replica state (ReplicaStateful): every
// training forward folds the replica's own batch into them. A state
// value is the mean then the variance, C floats each.

func (l *BatchNormLayer) ReplicaState() any {
	s := make([]float32, 2*l.c)
	l.SaveReplicaState(s)
	return s
}

func (l *BatchNormLayer) SaveReplicaState(s any) {
	v := s.([]float32)
	copy(v[copy(v, l.runningMean.Data.Data):], l.runningVar.Data.Data)
}

func (l *BatchNormLayer) LoadReplicaState(s any) {
	v := s.([]float32)
	copy(l.runningVar.Data.Data, v[copy(l.runningMean.Data.Data, v):])
}

func (l *BatchNormLayer) Forward(bottoms, tops []*tensor.Tensor, phase Phase) {
	in, out := bottoms[0], tops[0]
	hw := in.H * in.W
	cnt := float32(in.N * hw)
	for c := 0; c < in.C; c++ {
		var mean, invStd float32
		if phase == Train {
			var sum, sq float64
			for n := 0; n < in.N; n++ {
				off := (n*in.C + c) * hw
				for i := 0; i < hw; i++ {
					v := float64(in.Data[off+i])
					sum += v
					sq += v * v
				}
			}
			m := sum / float64(cnt)
			variance := sq/float64(cnt) - m*m
			if variance < 0 {
				variance = 0
			}
			mean = float32(m)
			invStd = float32(1 / math.Sqrt(variance+float64(l.eps)))
			l.runningMean.Data.Data[c] = l.momentum*l.runningMean.Data.Data[c] + (1-l.momentum)*mean
			l.runningVar.Data.Data[c] = l.momentum*l.runningVar.Data.Data[c] + (1-l.momentum)*float32(variance)
		} else {
			mean = l.runningMean.Data.Data[c]
			invStd = float32(1 / math.Sqrt(float64(l.runningVar.Data.Data[c])+float64(l.eps)))
		}
		l.mean[c], l.invStd[c] = mean, invStd
		for n := 0; n < in.N; n++ {
			off := (n*in.C + c) * hw
			for i := 0; i < hw; i++ {
				xh := (in.Data[off+i] - mean) * invStd
				l.xhat[off+i] = xh
				out.Data[off+i] = xh
			}
		}
	}
}

func (l *BatchNormLayer) Backward(bottoms, tops, topDiffs []*tensor.Tensor, bottomDiffs []*tensor.Tensor, phase Phase) {
	if bottomDiffs[0] == nil {
		return
	}
	in, dy, dx := bottoms[0], topDiffs[0], bottomDiffs[0]
	hw := in.H * in.W
	cnt := float32(in.N * hw)
	for c := 0; c < in.C; c++ {
		var sumDy, sumDyXhat float64
		for n := 0; n < in.N; n++ {
			off := (n*in.C + c) * hw
			for i := 0; i < hw; i++ {
				g := float64(dy.Data[off+i])
				sumDy += g
				sumDyXhat += g * float64(l.xhat[off+i])
			}
		}
		mDy := float32(sumDy) / cnt
		mDyXhat := float32(sumDyXhat) / cnt
		is := l.invStd[c]
		for n := 0; n < in.N; n++ {
			off := (n*in.C + c) * hw
			for i := 0; i < hw; i++ {
				dx.Data[off+i] += is * (dy.Data[off+i] - mDy - l.xhat[off+i]*mDyXhat)
			}
		}
	}
}

// LRNLayer is Caffe's local response normalization (across channels),
// kept for fidelity with the original AlexNet even though swCaffe's
// refined AlexNet replaces it with BN.
type LRNLayer struct {
	base
	alpha float32
	beta  float32
	k     float32
	scale []float32
}

// NewLRN builds a cross-channel LRN layer with AlexNet defaults: a
// window of lrnSize channels.
func NewLRN(name, bottom, top string) *LRNLayer {
	return &LRNLayer{base: newBase(name, KLRN, top, bottom), alpha: 1e-4, beta: 0.75, k: 1}
}

func (l *LRNLayer) Setup(bottoms []*tensor.Tensor) ([][4]int, error) {
	in, err := checkOneBottom(l, bottoms)
	if err != nil {
		return nil, err
	}
	l.Elems = in.Len()
	if cap(l.scale) < l.Elems {
		l.scale = make([]float32, l.Elems)
	}
	return [][4]int{in.Shape()}, nil
}

func (l *LRNLayer) Forward(bottoms, tops []*tensor.Tensor, phase Phase) {
	in, out := bottoms[0], tops[0]
	hw := in.H * in.W
	half := lrnSize / 2
	norm := l.alpha / lrnSize
	for n := 0; n < in.N; n++ {
		for c := 0; c < in.C; c++ {
			off := (n*in.C + c) * hw
			for i := 0; i < hw; i++ {
				var acc float32
				for d := -half; d <= half; d++ {
					cc := c + d
					if cc < 0 || cc >= in.C {
						continue
					}
					v := in.Data[(n*in.C+cc)*hw+i]
					acc += v * v
				}
				s := l.k + norm*acc
				l.scale[off+i] = s
				out.Data[off+i] = in.Data[off+i] * float32(math.Pow(float64(s), -float64(l.beta)))
			}
		}
	}
}

func (l *LRNLayer) Backward(bottoms, tops, topDiffs []*tensor.Tensor, bottomDiffs []*tensor.Tensor, phase Phase) {
	if bottomDiffs[0] == nil {
		return
	}
	in, top, dy, dx := bottoms[0], tops[0], topDiffs[0], bottomDiffs[0]
	hw := in.H * in.W
	half := lrnSize / 2
	norm := 2 * l.alpha * l.beta / lrnSize
	for n := 0; n < in.N; n++ {
		for c := 0; c < in.C; c++ {
			off := (n*in.C + c) * hw
			for i := 0; i < hw; i++ {
				g := dy.Data[off+i] * float32(math.Pow(float64(l.scale[off+i]), -float64(l.beta)))
				// cross-channel term
				var cross float32
				for d := -half; d <= half; d++ {
					cc := c + d
					if cc < 0 || cc >= in.C {
						continue
					}
					o2 := (n*in.C+cc)*hw + i
					cross += dy.Data[o2] * top.Data[o2] / l.scale[o2]
				}
				dx.Data[off+i] += g - norm*in.Data[off+i]*cross
			}
		}
	}
}
