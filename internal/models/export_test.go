package models

import (
	"swcaffe/internal/core"
	"swcaffe/internal/tensor"
)

// Net materializes the spec into a functional core.Net ready for
// Setup, which takes the data and label tensors of InputTensors. The
// tests run the architectures functionally through it; programs only
// price them.
func (m *ModelSpec) Net() *core.Net {
	n := core.NewNet(m.Name, "data", "label")
	for i := range m.Layers {
		l := &m.Layers[i]
		switch l.Kind {
		case core.KConv:
			n.AddLayer(core.NewConv(core.ConvConfig{
				Name: l.Name, Bottom: l.Bottoms[0], Top: l.Top,
				NumOutput: l.NumOutput, Kernel: l.Kernel, Stride: l.Stride,
				Pad: l.Pad, BiasTerm: l.BiasTerm,
			}))
		case core.KPool:
			n.AddLayer(core.NewPool(core.PoolConfig{
				Name: l.Name, Bottom: l.Bottoms[0], Top: l.Top,
				Method: l.PoolMethod, Kernel: l.Kernel, Stride: l.Stride,
				Pad: l.Pad, Global: l.Global,
			}))
		case core.KReLU:
			n.AddLayer(core.NewReLU(l.Name, l.Bottoms[0], l.Top, 0))
		case core.KBatchNorm:
			n.AddLayer(core.NewBatchNorm(l.Name, l.Bottoms[0], l.Top))
		case core.KScale:
			n.AddLayer(core.NewScale(l.Name, l.Bottoms[0], l.Top))
		case core.KLRN:
			n.AddLayer(core.NewLRN(l.Name, l.Bottoms[0], l.Top))
		case core.KDropout:
			n.AddLayer(core.NewDropout(l.Name, l.Bottoms[0], l.Top, l.DropRatio))
		case core.KInnerProduct:
			n.AddLayer(core.NewInnerProduct(core.InnerProductConfig{
				Name: l.Name, Bottom: l.Bottoms[0], Top: l.Top,
				NumOutput: l.NumOutput, BiasTerm: l.BiasTerm,
			}))
		case core.KConcat:
			n.AddLayer(core.NewConcat(l.Name, l.Bottoms, l.Top))
		case core.KEltwise:
			n.AddLayer(core.NewEltwise(l.Name, l.Bottoms, l.Top, core.EltSum))
		case core.KSoftmaxLoss:
			n.AddLayer(core.NewSoftmaxLoss(l.Name, l.Bottoms[0], l.Bottoms[1], l.Top))
		}
	}
	return n
}

// InputTensors allocates data and label tensors matching the spec.
func (m *ModelSpec) InputTensors() map[string]*tensor.Tensor {
	d := m.InputDim
	return map[string]*tensor.Tensor{
		"data":  tensor.New(d[0], d[1], d[2], d[3]),
		"label": tensor.New(d[0], 1, 1, 1),
	}
}
