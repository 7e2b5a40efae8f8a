package core

import (
	"fmt"

	"swcaffe/internal/perf"
	"swcaffe/internal/tensor"
)

// EltwiseOp selects the elementwise combination.
type EltwiseOp uint8

const (
	EltSum EltwiseOp = iota
	EltProd
	EltMax
)

// EltwiseLayer combines same-shaped bottoms elementwise; EltSum is the
// residual connection of ResNet.
type EltwiseLayer struct {
	base
	op EltwiseOp
	n  int
}

// NewEltwise builds an elementwise combination of the given bottoms.
func NewEltwise(name string, bottoms []string, top string, op EltwiseOp) *EltwiseLayer {
	l := &EltwiseLayer{op: op}
	l.name, l.typ = name, "Eltwise"
	l.bottoms = append([]string(nil), bottoms...)
	l.tops = []string{top}
	return l
}

func (l *EltwiseLayer) Setup(bottoms []*tensor.Tensor) ([][4]int, error) {
	if len(bottoms) < 2 {
		return nil, fmt.Errorf("core: layer %q wants >=2 bottoms, got %d", l.name, len(bottoms))
	}
	for _, b := range bottoms[1:] {
		if !bottoms[0].SameShape(b) {
			return nil, shapeErr(l.name, "eltwise bottom", b.Shape())
		}
	}
	l.n = bottoms[0].Len()
	return [][4]int{bottoms[0].Shape()}, nil
}

func (l *EltwiseLayer) Forward(bottoms, tops []*tensor.Tensor, phase Phase) {
	out := tops[0]
	copy(out.Data, bottoms[0].Data)
	for _, b := range bottoms[1:] {
		switch l.op {
		case EltSum:
			for i, v := range b.Data {
				out.Data[i] += v
			}
		case EltProd:
			for i, v := range b.Data {
				out.Data[i] *= v
			}
		case EltMax:
			for i, v := range b.Data {
				if v > out.Data[i] {
					out.Data[i] = v
				}
			}
		}
	}
}

func (l *EltwiseLayer) Backward(bottoms, tops, topDiffs []*tensor.Tensor, bottomDiffs []*tensor.Tensor, phase Phase) {
	dy := topDiffs[0]
	switch l.op {
	case EltSum:
		for bi := range bottoms {
			if bottomDiffs[bi] == nil {
				continue
			}
			bottomDiffs[bi].AXPY(1, dy)
		}
	case EltProd:
		for bi := range bottoms {
			if bottomDiffs[bi] == nil {
				continue
			}
			dx := bottomDiffs[bi]
			for i := range dy.Data {
				prod := dy.Data[i]
				for bj := range bottoms {
					if bj != bi {
						prod *= bottoms[bj].Data[i]
					}
				}
				dx.Data[i] += prod
			}
		}
	case EltMax:
		out := tops[0]
		for bi := range bottoms {
			if bottomDiffs[bi] == nil {
				continue
			}
			dx := bottomDiffs[bi]
			for i := range dy.Data {
				if bottoms[bi].Data[i] == out.Data[i] {
					dx.Data[i] += dy.Data[i]
				}
			}
		}
	}
}

func (l *EltwiseLayer) Cost(dev perf.Device) LayerCost {
	k := len(l.bottoms)
	return LayerCost{
		Forward:  dev.Elementwise(l.n, k, 1, float64(k-1)),
		Backward: dev.Elementwise(l.n, 1, k, float64(k-1)),
	}
}

// ConcatLayer concatenates bottoms along the channel axis (the
// inception-module join of GoogLeNet).
type ConcatLayer struct {
	base
	chans []int
	n     int
}

// NewConcat builds a channel concatenation of the given bottoms.
func NewConcat(name string, bottoms []string, top string) *ConcatLayer {
	l := &ConcatLayer{}
	l.name, l.typ = name, "Concat"
	l.bottoms = append([]string(nil), bottoms...)
	l.tops = []string{top}
	return l
}

func (l *ConcatLayer) Setup(bottoms []*tensor.Tensor) ([][4]int, error) {
	if len(bottoms) < 1 {
		return nil, fmt.Errorf("core: layer %q wants >=1 bottom", l.name)
	}
	first := bottoms[0]
	total := 0
	l.chans = l.chans[:0]
	for _, b := range bottoms {
		if b.N != first.N || b.H != first.H || b.W != first.W {
			return nil, shapeErr(l.name, "concat bottom", b.Shape())
		}
		l.chans = append(l.chans, b.C)
		total += b.C
	}
	l.n = first.N * total * first.H * first.W
	return [][4]int{{first.N, total, first.H, first.W}}, nil
}

func (l *ConcatLayer) Forward(bottoms, tops []*tensor.Tensor, phase Phase) {
	out := tops[0]
	hw := out.H * out.W
	for n := 0; n < out.N; n++ {
		cOff := 0
		for bi, b := range bottoms {
			c := l.chans[bi]
			copy(out.Data[(n*out.C+cOff)*hw:(n*out.C+cOff+c)*hw],
				b.Data[n*c*hw:(n+1)*c*hw])
			cOff += c
		}
	}
}

func (l *ConcatLayer) Backward(bottoms, tops, topDiffs []*tensor.Tensor, bottomDiffs []*tensor.Tensor, phase Phase) {
	dy := topDiffs[0]
	out := tops[0]
	hw := out.H * out.W
	for n := 0; n < out.N; n++ {
		cOff := 0
		for bi := range bottoms {
			c := l.chans[bi]
			if bottomDiffs[bi] != nil {
				dst := bottomDiffs[bi].Data[n*c*hw : (n+1)*c*hw]
				src := dy.Data[(n*out.C+cOff)*hw : (n*out.C+cOff+c)*hw]
				for i, v := range src {
					dst[i] += v
				}
			}
			cOff += c
		}
	}
}

func (l *ConcatLayer) Cost(dev perf.Device) LayerCost {
	return LayerCost{
		Forward:  dev.Elementwise(l.n, 1, 1, 0),
		Backward: dev.Elementwise(l.n, 1, 1, 0),
	}
}
