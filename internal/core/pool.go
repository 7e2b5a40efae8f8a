package core

import (
	"math"

	"swcaffe/internal/swdnn"
	"swcaffe/internal/tensor"
)

// PoolMethod selects max or average pooling.
type PoolMethod uint8

const (
	MaxPool PoolMethod = iota
	AvgPool
)

// PoolConfig configures a pooling layer.
type PoolConfig struct {
	Name   string
	Bottom string
	Top    string
	Method PoolMethod
	Kernel int
	Stride int
	Pad    int
	// Global pools the whole spatial extent regardless of Kernel
	// (ResNet/GoogLeNet final pooling).
	Global bool
}

// PoolLayer partitions the input into (possibly overlapping) tiles and
// emits the max or average of each (paper Sec. IV-D). It is a
// bandwidth-bound layer on SW26010.
type PoolLayer struct {
	base
	cfg    PoolConfig
	ro, co int
	argmax []int32 // max-pool switch indices for backward
}

// NewPool builds a pooling layer.
func NewPool(cfg PoolConfig) *PoolLayer {
	if cfg.Stride == 0 {
		cfg.Stride = cfg.Kernel
	}
	return &PoolLayer{base: newBase(cfg.Name, KPool, cfg.Top, cfg.Bottom), cfg: cfg}
}

func (l *PoolLayer) Setup(bottoms []*tensor.Tensor) ([][4]int, error) {
	in, err := checkOneBottom(l, bottoms)
	if err != nil {
		return nil, err
	}
	if l.cfg.Global {
		l.cfg.Kernel = in.H
		l.cfg.Stride = 1
		l.cfg.Pad = 0
	}
	l.Pool = swdnn.PoolShape{B: in.N, C: in.C, Ri: in.H, Ci: in.W,
		K: l.cfg.Kernel, S: l.cfg.Stride, Pad: l.cfg.Pad}
	l.ro, l.co = l.Pool.OutDims()
	if l.cfg.Method == MaxPool {
		need := in.N * in.C * l.ro * l.co
		if cap(l.argmax) < need {
			l.argmax = make([]int32, need)
		}
	}
	return [][4]int{{in.N, in.C, l.ro, l.co}}, nil
}

func (l *PoolLayer) Forward(bottoms, tops []*tensor.Tensor, phase Phase) {
	in, out := bottoms[0], tops[0]
	k, s, p := l.cfg.Kernel, l.cfg.Stride, l.cfg.Pad
	ro, co := l.ro, l.co
	for n := 0; n < in.N; n++ {
		for c := 0; c < in.C; c++ {
			inOff := (n*in.C + c) * in.H * in.W
			outOff := (n*in.C + c) * ro * co
			for oy := 0; oy < ro; oy++ {
				for ox := 0; ox < co; ox++ {
					y0, x0 := oy*s-p, ox*s-p
					y1, x1 := y0+k, x0+k
					cy0, cx0 := clamp(y0, 0, in.H), clamp(x0, 0, in.W)
					cy1, cx1 := clamp(y1, 0, in.H), clamp(x1, 0, in.W)
					switch l.cfg.Method {
					case MaxPool:
						best := float32(math.Inf(-1))
						bestIdx := int32(-1)
						for y := cy0; y < cy1; y++ {
							for x := cx0; x < cx1; x++ {
								v := in.Data[inOff+y*in.W+x]
								if v > best {
									best = v
									bestIdx = int32(y*in.W + x)
								}
							}
						}
						out.Data[outOff+oy*co+ox] = best
						l.argmax[outOff+oy*co+ox] = bestIdx
					case AvgPool:
						var acc float32
						for y := cy0; y < cy1; y++ {
							for x := cx0; x < cx1; x++ {
								acc += in.Data[inOff+y*in.W+x]
							}
						}
						// Caffe averages over the padded window size.
						out.Data[outOff+oy*co+ox] = acc / float32((y1-y0)*(x1-x0))
					}
				}
			}
		}
	}
}

func (l *PoolLayer) Backward(bottoms, tops, topDiffs []*tensor.Tensor, bottomDiffs []*tensor.Tensor, phase Phase) {
	if bottomDiffs[0] == nil {
		return
	}
	in, dy, dx := bottoms[0], topDiffs[0], bottomDiffs[0]
	k, s, p := l.cfg.Kernel, l.cfg.Stride, l.cfg.Pad
	ro, co := l.ro, l.co
	for n := 0; n < in.N; n++ {
		for c := 0; c < in.C; c++ {
			inOff := (n*in.C + c) * in.H * in.W
			outOff := (n*in.C + c) * ro * co
			for oy := 0; oy < ro; oy++ {
				for ox := 0; ox < co; ox++ {
					g := dy.Data[outOff+oy*co+ox]
					if g == 0 {
						continue
					}
					switch l.cfg.Method {
					case MaxPool:
						if idx := l.argmax[outOff+oy*co+ox]; idx >= 0 {
							dx.Data[inOff+int(idx)] += g
						}
					case AvgPool:
						y0, x0 := oy*s-p, ox*s-p
						y1, x1 := y0+k, x0+k
						share := g / float32((y1-y0)*(x1-x0))
						cy0, cx0 := clamp(y0, 0, in.H), clamp(x0, 0, in.W)
						cy1, cx1 := clamp(y1, 0, in.H), clamp(x1, 0, in.W)
						for y := cy0; y < cy1; y++ {
							for x := cx0; x < cx1; x++ {
								dx.Data[inOff+y*in.W+x] += share
							}
						}
					}
				}
			}
		}
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
