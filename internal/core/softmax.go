package core

import (
	"fmt"
	"math"

	"swcaffe/internal/tensor"
)

// SoftmaxLossLayer fuses softmax and multinomial logistic loss, as
// Caffe's SoftmaxWithLoss does. Bottom 0 is the (B, C, 1, 1) score
// blob; bottom 1 is the (B, 1, 1, 1) label blob (class indices stored
// as float32). The top is a scalar loss.
type SoftmaxLossLayer struct {
	base
	prob []float32
}

// NewSoftmaxLoss builds the fused softmax + NLL loss layer.
func NewSoftmaxLoss(name, scores, labels, top string) *SoftmaxLossLayer {
	return &SoftmaxLossLayer{base: newBase(name, KSoftmaxLoss, top, scores, labels)}
}

func (l *SoftmaxLossLayer) Setup(bottoms []*tensor.Tensor) ([][4]int, error) {
	if len(bottoms) != 2 {
		return nil, fmt.Errorf("core: layer %q wants 2 bottoms (scores, labels), got %d", l.name, len(bottoms))
	}
	scores, labels := bottoms[0], bottoms[1]
	l.B = scores.N
	l.Cout = scores.C * scores.H * scores.W
	if labels.N != scores.N {
		return nil, fmt.Errorf("core: layer %q: label batch %d != score batch %d", l.name, labels.N, scores.N)
	}
	if cap(l.prob) < l.B*l.Cout {
		l.prob = make([]float32, l.B*l.Cout)
	}
	return [][4]int{{1, 1, 1, 1}}, nil
}

func (l *SoftmaxLossLayer) Forward(bottoms, tops []*tensor.Tensor, phase Phase) {
	scores, labels := bottoms[0], bottoms[1]
	var loss float64
	for n := 0; n < l.B; n++ {
		row := scores.Data[n*l.Cout : (n+1)*l.Cout]
		prow := l.prob[n*l.Cout : (n+1)*l.Cout]
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
		if lbl < 0 || lbl >= l.Cout {
			panic(fmt.Sprintf("core: %s: label %d out of range [0,%d)", l.name, lbl, l.Cout))
		}
		p := float64(prow[lbl])
		if p < 1e-38 {
			p = 1e-38
		}
		loss -= math.Log(p)
	}
	tops[0].Data[0] = float32(loss / float64(l.B))
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
	scale := w / float32(l.B)
	dx := bottomDiffs[0]
	for n := 0; n < l.B; n++ {
		prow := l.prob[n*l.Cout : (n+1)*l.Cout]
		lbl := int(labels.Data[n])
		off := n * l.Cout
		for i, p := range prow {
			g := p
			if i == lbl {
				g -= 1
			}
			dx.Data[off+i] += g * scale
		}
	}
}

// AccuracyLayer reports top-k classification accuracy. It produces no
// gradient.
type AccuracyLayer struct {
	base
	topK int
}

// NewAccuracy builds a top-k accuracy layer.
func NewAccuracy(name, scores, labels, top string, topK int) *AccuracyLayer {
	if topK <= 0 {
		topK = 1
	}
	return &AccuracyLayer{base: newBase(name, KAccuracy, top, scores, labels), topK: topK}
}

func (l *AccuracyLayer) Setup(bottoms []*tensor.Tensor) ([][4]int, error) {
	if len(bottoms) != 2 {
		return nil, fmt.Errorf("core: layer %q wants 2 bottoms, got %d", l.name, len(bottoms))
	}
	l.B = bottoms[0].N
	l.Cout = bottoms[0].C * bottoms[0].H * bottoms[0].W
	return [][4]int{{1, 1, 1, 1}}, nil
}

func (l *AccuracyLayer) Forward(bottoms, tops []*tensor.Tensor, phase Phase) {
	scores, labels := bottoms[0], bottoms[1]
	correct := 0
	for n := 0; n < l.B; n++ {
		row := scores.Data[n*l.Cout : (n+1)*l.Cout]
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
	tops[0].Data[0] = float32(correct) / float32(l.B)
}

func (l *AccuracyLayer) Backward(bottoms, tops, topDiffs []*tensor.Tensor, bottomDiffs []*tensor.Tensor, phase Phase) {
}
