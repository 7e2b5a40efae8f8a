package core

import (
	"fmt"
	"math"

	"swcaffe/internal/perf"
	"swcaffe/internal/tensor"
)

// SoftmaxLossLayer fuses softmax and multinomial logistic loss, as
// Caffe's SoftmaxWithLoss does. Bottom 0 is the (B, C, 1, 1) score
// blob; bottom 1 is the (B, 1, 1, 1) label blob (class indices stored
// as float32). The top is a scalar loss.
type SoftmaxLossLayer struct {
	base
	b, c int
	prob []float32
}

// NewSoftmaxLoss builds the fused softmax + NLL loss layer.
func NewSoftmaxLoss(name, scores, labels, top string) *SoftmaxLossLayer {
	l := &SoftmaxLossLayer{}
	l.name, l.typ = name, "SoftmaxWithLoss"
	l.bottoms = []string{scores, labels}
	l.tops = []string{top}
	return l
}

func (l *SoftmaxLossLayer) Setup(bottoms []*tensor.Tensor) ([][4]int, error) {
	if len(bottoms) != 2 {
		return nil, fmt.Errorf("core: layer %q wants 2 bottoms (scores, labels), got %d", l.name, len(bottoms))
	}
	scores, labels := bottoms[0], bottoms[1]
	l.b = scores.N
	l.c = scores.C * scores.H * scores.W
	if labels.N != scores.N {
		return nil, fmt.Errorf("core: layer %q: label batch %d != score batch %d", l.name, labels.N, scores.N)
	}
	if cap(l.prob) < l.b*l.c {
		l.prob = make([]float32, l.b*l.c)
	}
	return [][4]int{{1, 1, 1, 1}}, nil
}

func (l *SoftmaxLossLayer) Forward(bottoms, tops []*tensor.Tensor, phase Phase) {
	scores, labels := bottoms[0], bottoms[1]
	var loss float64
	for n := 0; n < l.b; n++ {
		row := scores.Data[n*l.c : (n+1)*l.c]
		prow := l.prob[n*l.c : (n+1)*l.c]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v - maxV))
			prow[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range prow {
			prow[i] *= inv
		}
		lbl := int(labels.Data[n])
		if lbl < 0 || lbl >= l.c {
			panic(fmt.Sprintf("core: %s: label %d out of range [0,%d)", l.name, lbl, l.c))
		}
		p := float64(prow[lbl])
		if p < 1e-38 {
			p = 1e-38
		}
		loss -= math.Log(p)
	}
	tops[0].Data[0] = float32(loss / float64(l.b))
}

func (l *SoftmaxLossLayer) Backward(bottoms, tops, topDiffs []*tensor.Tensor, bottomDiffs []*tensor.Tensor, phase Phase) {
	if bottomDiffs[0] == nil {
		return
	}
	labels := bottoms[1]
	// Loss weight: gradient of the mean NLL, scaled by any upstream
	// diff on the scalar loss (1.0 when this is the net's loss).
	w := float32(1)
	if topDiffs[0] != nil && len(topDiffs[0].Data) > 0 {
		w = topDiffs[0].Data[0]
		if w == 0 {
			w = 1
		}
	}
	scale := w / float32(l.b)
	dx := bottomDiffs[0]
	for n := 0; n < l.b; n++ {
		prow := l.prob[n*l.c : (n+1)*l.c]
		lbl := int(labels.Data[n])
		off := n * l.c
		for i, p := range prow {
			g := p
			if i == lbl {
				g -= 1
			}
			dx.Data[off+i] += g * scale
		}
	}
}

func (l *SoftmaxLossLayer) Cost(dev perf.Device) LayerCost {
	return LayerCost{Forward: dev.Softmax(l.b, l.c), Backward: dev.Elementwise(l.b*l.c, 2, 1, 2)}
}

// AccuracyLayer reports top-k classification accuracy. It produces no
// gradient.
type AccuracyLayer struct {
	base
	topK int
	b, c int
}

// NewAccuracy builds a top-k accuracy layer.
func NewAccuracy(name, scores, labels, top string, topK int) *AccuracyLayer {
	if topK <= 0 {
		topK = 1
	}
	l := &AccuracyLayer{topK: topK}
	l.name, l.typ = name, "Accuracy"
	l.bottoms = []string{scores, labels}
	l.tops = []string{top}
	return l
}

func (l *AccuracyLayer) Setup(bottoms []*tensor.Tensor) ([][4]int, error) {
	if len(bottoms) != 2 {
		return nil, fmt.Errorf("core: layer %q wants 2 bottoms, got %d", l.name, len(bottoms))
	}
	l.b = bottoms[0].N
	l.c = bottoms[0].C * bottoms[0].H * bottoms[0].W
	return [][4]int{{1, 1, 1, 1}}, nil
}

func (l *AccuracyLayer) Forward(bottoms, tops []*tensor.Tensor, phase Phase) {
	scores, labels := bottoms[0], bottoms[1]
	correct := 0
	for n := 0; n < l.b; n++ {
		row := scores.Data[n*l.c : (n+1)*l.c]
		lbl := int(labels.Data[n])
		target := row[lbl]
		// Count entries strictly greater than the target score; the
		// prediction is top-k when fewer than k beat it.
		better := 0
		for _, v := range row {
			if v > target {
				better++
			}
		}
		if better < l.topK {
			correct++
		}
	}
	tops[0].Data[0] = float32(correct) / float32(l.b)
}

func (l *AccuracyLayer) Backward(bottoms, tops, topDiffs []*tensor.Tensor, bottomDiffs []*tensor.Tensor, phase Phase) {
}

func (l *AccuracyLayer) Cost(dev perf.Device) LayerCost {
	return LayerCost{Forward: dev.Elementwise(l.b*l.c, 1, 0, 1)}
}
