package main

import (
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/detrand"
	"swcaffe/internal/tensor"
)

// The three training workloads share the functional-scaling net of
// internal/experiments (funcScaleNet is unexported there, so it is
// copied): conv 8x3x3 pad 1 -> ReLU -> fc 64 -> ReLU -> fc 4 ->
// softmax loss on 1x8x8 inputs, about 33 k parameters (133 kB of
// gradient) — big enough to span several gradient buckets, small
// enough to simulate at p = 1024.
const (
	netClasses  = 4
	netSubBatch = 8
)

func scaleNet(batch int) (*core.Net, map[string]*tensor.Tensor, error) {
	net := core.NewNet("funcscale", "data", "label")
	net.AddLayers(
		core.NewConv(core.ConvConfig{Name: "conv1", Bottom: "data", Top: "conv1",
			NumOutput: 8, Kernel: 3, Stride: 1, Pad: 1, BiasTerm: true}),
		core.NewReLU("relu1", "conv1", "conv1", 0),
		core.NewInnerProduct(core.InnerProductConfig{Name: "fc1", Bottom: "conv1", Top: "fc1",
			NumOutput: 64, BiasTerm: true}),
		core.NewReLU("relu2", "fc1", "fc1", 0),
		core.NewInnerProduct(core.InnerProductConfig{Name: "fc2", Bottom: "fc1", Top: "fc2",
			NumOutput: netClasses, BiasTerm: true}),
		core.NewSoftmaxLoss("loss", "fc2", "label", "loss"),
	)
	inputs := map[string]*tensor.Tensor{
		"data":  tensor.New(batch, 1, 8, 8),
		"label": tensor.New(batch, 1, 1, 1),
	}
	if err := net.Setup(inputs); err != nil {
		return nil, nil, err
	}
	return net, inputs, nil
}

func buildScaleNet() (*core.Net, map[string]*tensor.Tensor, error) { return scaleNet(netSubBatch) }

var scaleSolver = core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}

// scaleDataset is the separable cluster task the net trains on; the
// seed places the class centres.
func scaleDataset(seed uint64) *dataset.Clusters {
	return dataset.NewClusters(4096, netClasses, 1, 8, 8, 0.35, int64(seed))
}

// fill draws n float32 in [-1, 1) from the seed's stream.
func fill(rng *detrand.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = 2*rng.Float32() - 1
	}
	return v
}

// coreProbes times the framework layer in isolation on the workload's
// net: one forward+backward, one solver update, one gradient pack
// round trip, and building the net.
func coreProbes(m map[string]float64) {
	net, _, err := buildScaleNet()
	if err != nil {
		panic(err)
	}
	solver := core.NewSolver(net, scaleSolver)
	m["core.fwd_bwd_host_us"] = timeN(200, func() {
		net.ZeroParamDiffs()
		net.Forward(core.Train)
		net.Backward(core.Train)
	}) / 1e3
	solver.ApplyUpdate() // allocates the momentum history once
	m["core.solver_update_host_us"] = timeN(200, solver.ApplyUpdate) / 1e3
	var buf []float32
	m["core.pack_host_us"] = timeN(200, func() {
		buf = net.PackGradients(buf)
		net.UnpackGradients(buf)
	}) / 1e3
	build := func() {
		if _, _, err := buildScaleNet(); err != nil {
			panic(err)
		}
	}
	m["core.net_build_host_us"] = timeN(50, build) / 1e3
	m["core.net_build_alloc_bytes"] = allocN(50, build)
}
