package core

import (
	"fmt"

	"swcaffe/internal/detrand"
	"swcaffe/internal/swdnn"
	"swcaffe/internal/tensor"
)

// ConvConfig configures a convolution layer.
type ConvConfig struct {
	Name      string
	Bottom    string
	Top       string
	NumOutput int
	Kernel    int
	Stride    int
	Pad       int
	// Groups splits input and output channels into independent
	// convolution groups (original AlexNet used 2). Default 1.
	Groups     int
	BiasTerm   bool
	WeightInit string // "xavier" (default), "msra", "gaussian"
}

// ConvLayer is the 2-D convolution. The functional path is the
// explicit-GEMM transformation (im2col + GEMM, paper Sec. IV-B1); the
// costing path asks the device, which on SW26010 runs the
// mixed-strategy plan selection (explicit vs implicit).
//
// Forward keeps the whole batch's im2col columns and Backward computes
// the weight gradient from them, so Backward uses the columns of the
// last Forward, not the bottom blob as it is when Backward runs (as
// batch norm and pooling keep their forward state). The price is
// column memory for every image, not one: B·groups·(Ni/groups)·K²·Ro·Co
// floats, K² times the bottom blob at unit stride.
type ConvLayer struct {
	base
	cfg    ConvConfig
	shape  swdnn.ConvShape // whole-layer geometry (all groups); Conv is one group's
	weight *Param
	bias   *Param

	colBuf  []float32 // the last Forward's columns, per image and group
	dcolBuf []float32 // column-gradient scratch for Backward
}

// NewConv builds a convolution layer; parameters are initialized when
// Setup learns the input channel count.
func NewConv(cfg ConvConfig) *ConvLayer {
	if cfg.Stride == 0 {
		cfg.Stride = 1
	}
	if cfg.Groups == 0 {
		cfg.Groups = 1
	}
	return &ConvLayer{base: newBase(cfg.Name, KConv, cfg.Top, cfg.Bottom), cfg: cfg}
}

func (l *ConvLayer) Setup(bottoms []*tensor.Tensor) ([][4]int, error) {
	in, err := checkOneBottom(l, bottoms)
	if err != nil {
		return nil, err
	}
	g := l.cfg.Groups
	if in.C%g != 0 || l.cfg.NumOutput%g != 0 {
		return nil, fmt.Errorf("layer %q: %d groups do not divide channels %d->%d",
			l.name, g, in.C, l.cfg.NumOutput)
	}
	l.shape = swdnn.ConvShape{
		B: in.N, Ni: in.C, Ri: in.H, Ci: in.W,
		No: l.cfg.NumOutput, K: l.cfg.Kernel, S: l.cfg.Stride, P: l.cfg.Pad,
	}
	if err := l.shape.Validate(); err != nil {
		return nil, fmt.Errorf("layer %q: %w", l.name, err)
	}
	l.Conv, l.Groups = l.shape, g
	l.Conv.Ni = in.C / g
	l.Conv.No = l.cfg.NumOutput / g
	if l.weight == nil {
		l.weight = NewParam(l.name+".weight", l.cfg.NumOutput, in.C/g, l.cfg.Kernel, l.cfg.Kernel)
		fanIn := in.C / g * l.cfg.Kernel * l.cfg.Kernel
		rng := detrand.New(uint64(len(l.name))*7919 + 12345)
		switch l.cfg.WeightInit {
		case "msra":
			l.weight.Data.FillMSRA(rng, fanIn)
		case "gaussian":
			l.weight.Data.FillGaussian(rng, 0, 0.01)
		default:
			l.weight.Data.FillXavier(rng, fanIn)
		}
		if l.cfg.BiasTerm {
			l.bias = NewParam(l.name+".bias", 1, l.cfg.NumOutput, 1, 1)
			l.bias.DecayMult = 0
			l.bias.LRMult = 2 // Caffe convention
		}
	}
	ro, co := l.shape.OutDims()
	kdim := l.Conv.Ni * l.cfg.Kernel * l.cfg.Kernel
	if need := in.N * g * kdim * ro * co; cap(l.colBuf) < need {
		l.colBuf = make([]float32, need)
	}
	return [][4]int{{in.N, l.cfg.NumOutput, ro, co}}, nil
}

func (l *ConvLayer) Params() []*Param {
	if l.bias != nil {
		return []*Param{l.weight, l.bias}
	}
	if l.weight != nil {
		return []*Param{l.weight}
	}
	return nil
}

func (l *ConvLayer) Forward(bottoms, tops []*tensor.Tensor, phase Phase) {
	in, out := bottoms[0], tops[0]
	s, gs := l.shape, l.Conv
	g := l.cfg.Groups
	ro, co := s.OutDims()
	kdim := gs.Ni * s.K * s.K
	spatial := ro * co
	imgIn := s.Ni * s.Ri * s.Ci
	imgOut := s.No * spatial
	grpIn := gs.Ni * s.Ri * s.Ci
	grpOut := gs.No * spatial
	wPerGroup := gs.No * kdim
	cols := kdim * spatial
	for n := 0; n < s.B; n++ {
		for gi := 0; gi < g; gi++ {
			src := in.Data[n*imgIn+gi*grpIn : n*imgIn+(gi+1)*grpIn]
			dst := out.Data[n*imgOut+gi*grpOut : n*imgOut+(gi+1)*grpOut]
			col := l.colBuf[(n*g+gi)*cols : (n*g+gi+1)*cols]
			swdnn.Im2colRef(src, gs, col)
			clear(dst)
			swdnn.RefGEMM(l.weight.Data.Data[gi*wPerGroup:(gi+1)*wPerGroup], col, dst, gs.No, kdim, spatial)
		}
		if l.bias != nil {
			dst := out.Data[n*imgOut : (n+1)*imgOut]
			for o := 0; o < s.No; o++ {
				b := l.bias.Data.Data[o]
				row := dst[o*spatial : (o+1)*spatial]
				for i := range row {
					row[i] += b
				}
			}
		}
	}
}

func (l *ConvLayer) Backward(bottoms, tops, topDiffs []*tensor.Tensor, bottomDiffs []*tensor.Tensor, phase Phase) {
	dOut := topDiffs[0]
	s, gs := l.shape, l.Conv
	g := l.cfg.Groups
	ro, co := s.OutDims()
	kdim := gs.Ni * s.K * s.K
	spatial := ro * co
	imgIn := s.Ni * s.Ri * s.Ci
	imgOut := s.No * spatial
	grpIn := gs.Ni * s.Ri * s.Ci
	grpOut := gs.No * spatial
	wPerGroup := gs.No * kdim
	cols := kdim * spatial
	var dcol []float32
	if bottomDiffs[0] != nil {
		// Input-gradient scratch, allocated lazily so a net whose
		// convolutions all read inputs never pays for it; reused across
		// iterations once grown.
		if cap(l.dcolBuf) < cols {
			l.dcolBuf = make([]float32, cols)
		}
		dcol = l.dcolBuf[:cols]
	}

	for n := 0; n < s.B; n++ {
		for gi := 0; gi < g; gi++ {
			dy := dOut.Data[n*imgOut+gi*grpOut : n*imgOut+(gi+1)*grpOut]
			// Weight gradient: dW_g += dY_g · col_gᵀ, from Forward's columns.
			col := l.colBuf[(n*g+gi)*cols : (n*g+gi+1)*cols]
			swdnn.RefGEMMTransB(dy, col, l.weight.Diff.Data[gi*wPerGroup:(gi+1)*wPerGroup], gs.No, spatial, kdim)
			// Input gradient: dCol = W_gᵀ · dY_g, then col2im.
			if dcol != nil {
				clear(dcol)
				swdnn.RefGEMMTransA(l.weight.Data.Data[gi*wPerGroup:(gi+1)*wPerGroup], dy, dcol, kdim, gs.No, spatial)
				swdnn.Col2imRef(dcol, gs, bottomDiffs[0].Data[n*imgIn+gi*grpIn:n*imgIn+(gi+1)*grpIn])
			}
		}
		// Bias gradient: row sums of the whole dY.
		if l.bias != nil {
			dy := dOut.Data[n*imgOut : (n+1)*imgOut]
			for o := 0; o < s.No; o++ {
				var acc float32
				for _, v := range dy[o*spatial : (o+1)*spatial] {
					acc += v
				}
				l.bias.Diff.Data[o] += acc
			}
		}
	}
}
