// Package swcaffe is a Go reproduction of "swCaffe: a Parallel
// Framework for Accelerating Deep Learning Applications on Sunway
// TaihuLight" (Fang et al., CLUSTER 2018).
//
// The repository contains the full system the paper describes, with
// every hardware dependency replaced by a faithful simulator; the list
// below maps each part of the paper's system to the package that
// stands in for it (README.md's "Layout" table has one row per
// package):
//
//   - internal/sw26010: the SW26010 many-core processor — 8x8 CPE
//     mesh, 64 KB LDMs, DMA engine with the paper's measured bandwidth
//     curves, register-level communication buses — as both a
//     functional simulator and an analytic timing model;
//   - internal/swdnn: the redesigned DNN kernels (register-
//     communication GEMM, explicit and implicit GEMM convolution,
//     im2col/col2im DMA plans, pooling/transform/elementwise plans);
//   - internal/core: the Caffe-style framework (layers, net, solver);
//   - internal/models: AlexNet-BN, VGG-16/19, ResNet-50, GoogLeNet;
//   - internal/topology, internal/simnet, internal/allreduce: the
//     TaihuLight interconnect and the topology-aware parameter
//     synchronization (the paper's Sec. V contribution);
//   - internal/pario, internal/dataset: the parallel input pipeline;
//   - internal/train: single-node 4-CG SSGD and multi-node SSGD;
//   - internal/experiments: one generator per paper table/figure.
//
// This root package re-exports the handful of entry points a casual
// user needs; see the examples/ directory for runnable walkthroughs
// and cmd/swbench for the full evaluation harness.
package swcaffe

import (
	"io"

	"swcaffe/internal/experiments"
	"swcaffe/internal/models"
	"swcaffe/internal/perf"
	"swcaffe/internal/train"
)

// Version is the release tag of this reproduction.
const Version = "1.0.0"

// Models lists the available network architectures.
func Models() []string { return models.Names() }

// ThroughputImgPerSec estimates the training throughput of a model on
// one or more simulated SW26010 nodes.
func ThroughputImgPerSec(model string, subBatch, nodes int) (float64, error) {
	return train.ThroughputImgPerSec(train.ScalingConfig{
		Model: model, SubBatch: subBatch, Nodes: nodes,
	})
}

// Speedup estimates the multi-node speedup of Figs. 10.
func Speedup(model string, subBatch, nodes int) (float64, error) {
	return train.Speedup(train.ScalingConfig{Model: model, SubBatch: subBatch, Nodes: nodes})
}

// Devices returns the comparison devices of the paper's evaluation:
// one SW26010 core group, the K40m GPU and the Xeon CPU rooflines.
func Devices() []perf.Device {
	return []perf.Device{perf.NewSWCG(), perf.NewK40m(), perf.NewXeonCPU()}
}

// WriteEvaluation regenerates every table and figure of the paper into w.
func WriteEvaluation(w io.Writer) {
	experiments.Table1(w)
	experiments.Figure2(w)
	experiments.Table2(w)
	experiments.Figure6(w)
	experiments.Figure7(w, 100e6)
	experiments.Figure8(w)
	experiments.Figure9(w)
	experiments.Table3(w)
	experiments.Figure10(w)
	experiments.Figure11(w)
	experiments.IOStriping(w)
	experiments.PackAblation(w)
	experiments.GEMMAblation(w)
	experiments.AllreduceAblation(w)
	experiments.BNAblation(w)
	experiments.SumAblation(w)
	experiments.MappingAblation(w)
	experiments.BatchSweep(w)
}
