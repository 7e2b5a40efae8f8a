package core

import (
	"fmt"

	"swcaffe/internal/detrand"
	"swcaffe/internal/swdnn"
	"swcaffe/internal/tensor"
)

// InnerProductConfig configures a fully-connected layer.
type InnerProductConfig struct {
	Name      string
	Bottom    string
	Top       string
	NumOutput int
	BiasTerm  bool
}

// InnerProductLayer is the fully-connected layer: Y[B×Cout] =
// X[B×Cin]·Wᵀ + b. It is the GEMM workload of paper Sec. IV-A; on
// SW26010 it maps to the register-communication GEMM.
type InnerProductLayer struct {
	base
	cfg    InnerProductConfig
	weight *Param // (Cout, Cin) stored as (Cout, Cin, 1, 1)
	bias   *Param
}

// NewInnerProduct builds a fully-connected layer.
func NewInnerProduct(cfg InnerProductConfig) *InnerProductLayer {
	return &InnerProductLayer{base: newBase(cfg.Name, KInnerProduct, cfg.Top, cfg.Bottom), cfg: cfg}
}

func (l *InnerProductLayer) Setup(bottoms []*tensor.Tensor) ([][4]int, error) {
	in, err := checkOneBottom(l, bottoms)
	if err != nil {
		return nil, err
	}
	l.B, l.Cin, l.Cout = in.N, in.C*in.H*in.W, l.cfg.NumOutput
	if l.Cin == 0 {
		return nil, fmt.Errorf("layer %q: empty input", l.name)
	}
	if l.weight == nil {
		l.weight = NewParam(l.name+".weight", l.cfg.NumOutput, l.Cin, 1, 1)
		rng := detrand.New(uint64(len(l.name))*104729 + 7)
		l.weight.Data.FillXavier(rng, l.Cin)
		if l.cfg.BiasTerm {
			l.bias = NewParam(l.name+".bias", 1, l.cfg.NumOutput, 1, 1)
			l.bias.DecayMult = 0
			l.bias.LRMult = 2
		}
	} else if l.weight.Data.C != l.Cin {
		return nil, fmt.Errorf("layer %q: input size changed from %d to %d", l.name, l.weight.Data.C, l.Cin)
	}
	return [][4]int{{in.N, l.cfg.NumOutput, 1, 1}}, nil
}

func (l *InnerProductLayer) Params() []*Param {
	if l.bias != nil {
		return []*Param{l.weight, l.bias}
	}
	if l.weight != nil {
		return []*Param{l.weight}
	}
	return nil
}

func (l *InnerProductLayer) Forward(bottoms, tops []*tensor.Tensor, phase Phase) {
	in, out := bottoms[0], tops[0]
	cout := l.Cout
	for i := range out.Data {
		out.Data[i] = 0
	}
	// Y = X · Wᵀ
	swdnn.RefGEMMTransB(in.Data, l.weight.Data.Data, out.Data, l.B, l.Cin, cout)
	if l.bias != nil {
		for n := 0; n < l.B; n++ {
			row := out.Data[n*cout : (n+1)*cout]
			for j := range row {
				row[j] += l.bias.Data.Data[j]
			}
		}
	}
}

func (l *InnerProductLayer) Backward(bottoms, tops, topDiffs []*tensor.Tensor, bottomDiffs []*tensor.Tensor, phase Phase) {
	in := bottoms[0]
	dy := topDiffs[0]
	cout := l.Cout
	// dW += dYᵀ · X   (Cout×B · B×Cin)
	swdnn.RefGEMMTransA(dy.Data, in.Data, l.weight.Diff.Data, cout, l.B, l.Cin)
	if l.bias != nil {
		for n := 0; n < l.B; n++ {
			row := dy.Data[n*cout : (n+1)*cout]
			for j, v := range row {
				l.bias.Diff.Data[j] += v
			}
		}
	}
	// dX += dY · W   (B×Cout · Cout×Cin)
	if bottomDiffs[0] != nil {
		swdnn.RefGEMM(dy.Data, l.weight.Data.Data, bottomDiffs[0].Data, l.B, cout, l.Cin)
	}
}
