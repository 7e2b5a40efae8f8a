package swdnn

import (
	"math"

	"swcaffe/internal/sw26010"
)

// Pooling, activation, normalization and tensor-transformation kernels
// (paper Secs. IV-C and IV-D). These layers are bandwidth-bound on
// SW26010 — the paper notes they remain a "significant amount of time"
// there while GPUs hide them in 288 GB/s device memory — so their
// plans are dominated by the DMA movement schedule.

// PoolShape describes a pooling layer instance on one core group.
type PoolShape struct {
	B, C, Ri, Ci int
	K, S         int
	Pad          int
}

// OutDims returns the pooled spatial dims using Caffe's ceil mode.
func (p PoolShape) OutDims() (ro, co int) {
	ro = int(math.Ceil(float64(p.Ri+2*p.Pad-p.K)/float64(p.S))) + 1
	co = int(math.Ceil(float64(p.Ci+2*p.Pad-p.K)/float64(p.S))) + 1
	if p.Pad > 0 {
		// Caffe clips the last window to start inside the padded image.
		if (ro-1)*p.S >= p.Ri+p.Pad {
			ro--
		}
		if (co-1)*p.S >= p.Ci+p.Pad {
			co--
		}
	}
	return
}

// PoolPlan prices one pooling pass (forward or backward — both move
// the same volume). Each CPE handles whole K-row bands of the input
// when they fit in LDM, otherwise column chunks via strided DMA
// (Sec. IV-D).
func PoolPlan(hw *sw26010.Model, s PoolShape) Plan {
	ro, co := s.OutDims()
	inBytes := float64(4 * float64(s.B*s.C*s.Ri*s.Ci))
	outBytes := float64(4 * float64(s.B*s.C*ro*co))

	// Continuous block per DMA: K input rows when they fit, else a
	// strided column chunk.
	rowBytes := int64(s.Ci * 4)
	bandBytes := int64(s.K) * rowBytes
	block := bandBytes
	if int(bandBytes) > hw.LDMBudget/2 {
		block = int64(hw.LDMBudget) / int64(2*s.K) / 4 * 4
	}
	getBW := hw.DMABandwidth(sw26010.DMAGet, bandBytes, sw26010.CPEsPerCG, block)
	putBW := hw.DMABandwidth(sw26010.DMAPut, int64(co*4), sw26010.CPEsPerCG, int64(co*4))
	dma := inBytes/getBW + outBytes/putBW
	compute := hw.ComputeTime(float64(s.B*s.C*ro*co*s.K*s.K)/simdEfficiency, sw26010.CPEsPerCG)

	return Plan{
		Name: "pool", Feasible: true,
		Time:        combine(dma, compute, 0) + kernelLaunch,
		DMATime:     dma,
		ComputeTime: compute,
		Flops:       float64(s.B * s.C * ro * co * s.K * s.K),
		DMABytes:    int64(inBytes + outBytes),
	}
}

// ElementwisePlan prices a streaming elementwise kernel (ReLU,
// dropout, scale, eltwise-add, SGD update...) that reads rIn tensors
// of n float32 values and writes wOut tensors, with flopsPerElem
// arithmetic per element.
func ElementwisePlan(hw *sw26010.Model, n int, rIn, wOut int, flopsPerElem float64) Plan {
	bytes := 4 * float64(n) * float64(rIn+wOut)
	chunk := int64(hw.LDMBudget / 2)
	bw := hw.DMABandwidth(sw26010.DMAGet, chunk, sw26010.CPEsPerCG, chunk)
	dma := bytes / bw
	compute := hw.ComputeTime(float64(n)*flopsPerElem/simdEfficiency, sw26010.CPEsPerCG)
	return Plan{
		Name: "elementwise", Feasible: true,
		Time:        combine(dma, compute, 0) + kernelLaunch,
		DMATime:     dma,
		ComputeTime: compute,
		Flops:       float64(n) * flopsPerElem,
		DMABytes:    int64(bytes),
	}
}

// BatchNormPlan prices one batch-normalization pass over (B, C, H, W):
// two reduction sweeps (mean, variance) plus one normalization sweep.
func BatchNormPlan(hw *sw26010.Model, n int) Plan {
	p := ElementwisePlan(hw, n, 3, 1, 8)
	p.Name = "batchnorm"
	return p
}

// TransformPlan prices the tensor-transformation layer (Sec. IV-C):
// a 4-D transposition between the NCHW and RCNB layouts, implemented
// with strided DMA gathers and SIMD shuffles. One of the two sides
// necessarily moves in small blocks, so the achieved bandwidth follows
// the strided curve with the batch (innermost RCNB dim) as block.
//
//swvet:ignore deadexport: invariance.json pins plan_transform
func TransformPlan(hw *sw26010.Model, b, c, h, w int) Plan {
	n := b * c * h * w
	bytes := 8 * float64(n) // read once + write once
	block := int64(b * 4)   // RCNB innermost run
	if block < 4 {
		block = 4
	}
	bw := hw.DMABandwidth(sw26010.DMAGet, int64(hw.LDMBudget/2), sw26010.CPEsPerCG, block)
	dma := bytes / bw
	compute := hw.ComputeTime(float64(n)*2/simdEfficiency, sw26010.CPEsPerCG)
	return Plan{
		Name: "transform", Feasible: true,
		Time:        combine(dma, compute, 0) + kernelLaunch,
		DMATime:     dma,
		ComputeTime: compute,
		Flops:       float64(n) * 2,
		DMABytes:    int64(bytes),
	}
}

// SoftmaxPlan prices a softmax over (B, C): three sweeps (max,
// exp/sum, normalize) with transcendental cost.
func SoftmaxPlan(hw *sw26010.Model, b, c int) Plan {
	n := b * c
	p := ElementwisePlan(hw, n, 3, 1, 20)
	p.Name = "softmax"
	return p
}

// InnerProductPlan prices a fully-connected layer pass as the GEMM it
// is (paper Sec. IV-A): forward (B, Cin)·(Cin, Cout).
func InnerProductPlan(hw *sw26010.Model, b, cin, cout int, pass Pass) Plan {
	var p Plan
	switch pass {
	case Forward:
		p = gemmPlanNamed(hw, "inner-product", b, cin, cout)
	case BackwardWeight:
		p = gemmPlanNamed(hw, "inner-product", cin, b, cout)
	case BackwardInput:
		p = gemmPlanNamed(hw, "inner-product", b, cout, cin)
	}
	return p
}
