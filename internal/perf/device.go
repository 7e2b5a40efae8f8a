// Package perf provides per-device layer-time models used by the
// evaluation harness: the SW26010 core group (backed by the swdnn
// kernel planners) and calibrated roofline models of the comparison
// processors of paper Table I (NVIDIA K40m + cuDNN, the 12-core Xeon
// E5-2680 v3 host running Caffe's CPU path, and Intel KNL).
//
// The GPU/CPU comparators are closed systems we cannot run (no CUDA,
// no cuDNN, no testbed), so — per the reproduction substitution rule —
// they are rooflines: per-operation time is the max of a compute term
// (flops over an efficiency-derated peak) and a memory term (bytes
// over a derated bandwidth) plus fixed per-kernel overhead. The derate
// constants are calibrated once against the paper's own measurements
// (Table III throughputs and Figs. 8–9 per-layer times). In
// internal/experiments, TestTable3MatchesPaperBands holds the paper's
// Table III numbers and the bands the model must stay in, and
// TestFigures89Claims the per-layer orderings of Figs. 8–9. The SW26010
// numbers, in contrast, come from the mechanistic kernel plans in
// internal/swdnn.
package perf

import (
	"swcaffe/internal/sw26010"
	"swcaffe/internal/swdnn"
)

// Device prices the primitive operations a DNN layer performs.
// Times are seconds for the whole operation at the given batch.
type Device interface {
	Name() string
	// Conv prices one convolution pass.
	Conv(s swdnn.ConvShape, pass swdnn.Pass) float64
	// InnerProduct prices one fully-connected pass.
	InnerProduct(b, cin, cout int, pass swdnn.Pass) float64
	// Pool prices one pooling pass.
	Pool(s swdnn.PoolShape) float64
	// Elementwise prices a streaming kernel over n elements reading
	// rIn and writing wOut tensors with flopsPerElem arithmetic each.
	Elementwise(n, rIn, wOut int, flopsPerElem float64) float64
	// BatchNorm prices one batch-norm pass over n elements.
	BatchNorm(n int) float64
	// Softmax prices a softmax over (b, c).
	Softmax(b, c int) float64
	// InputOverhead is the host-side data path cost per image
	// (decode + host staging + PCIe for the GPU). The paper measures
	// that this is >40% of AlexNet iteration time on the K40m, while
	// SW26010 CPEs read memory directly via DMA (Sec. VI-B).
	InputOverhead(images int) float64
	// Key is a comparable value that two devices share exactly when
	// they price every operation alike, so a price may be memoized
	// under it. It is the device's parameters by value: a device
	// mutated in place gets a new key, never a stale price.
	Key() any
}

// --- SW26010 ----------------------------------------------------------

// SWCG is one SW26010 core group driven by the swdnn planners. A full
// node runs four of them in parallel on a quarter of the mini-batch
// each (Algorithm 1); the train package handles that split.
type SWCG struct {
	HW *sw26010.Model
}

// NewSWCG returns the default-calibrated core-group device.
func NewSWCG() *SWCG { return &SWCG{HW: sw26010.Default()} }

func (d *SWCG) Name() string { return "SW26010" }

// Key is the hardware model's value: the planners price from it alone.
func (d *SWCG) Key() any { return *d.HW }

func (d *SWCG) Conv(s swdnn.ConvShape, pass swdnn.Pass) float64 {
	_, _, best := swdnn.ConvPlans(d.HW, s, pass)
	if !best.Feasible {
		// Shape not runnable on the mesh at all (should not happen:
		// the explicit plan accepts any valid shape).
		return 0
	}
	return best.Time
}

func (d *SWCG) InnerProduct(b, cin, cout int, pass swdnn.Pass) float64 {
	return swdnn.InnerProductPlan(d.HW, b, cin, cout, pass).Time
}

func (d *SWCG) Pool(s swdnn.PoolShape) float64 {
	return swdnn.PoolPlan(d.HW, s).Time
}

func (d *SWCG) Elementwise(n, rIn, wOut int, flopsPerElem float64) float64 {
	return swdnn.ElementwisePlan(d.HW, n, rIn, wOut, flopsPerElem).Time
}

func (d *SWCG) BatchNorm(n int) float64 { return swdnn.BatchNormPlan(d.HW, n).Time }

func (d *SWCG) Softmax(b, c int) float64 { return swdnn.SoftmaxPlan(d.HW, b, c).Time }

// InputOverhead on SW26010 is negligible: CPEs DMA the staged batch
// from main memory directly (Sec. VI-B).
func (d *SWCG) InputOverhead(images int) float64 { return 0.1e-3 * float64(images) / 256 }

// --- roofline comparators ----------------------------------------------

// Roofline is a calibrated analytic comparator device.
type Roofline struct {
	DeviceName string
	PeakFlops  float64 // single-precision peak, flops/s
	MemBW      float64 // device memory bandwidth, bytes/s

	EffConv float64 // sustained fraction of peak in conv kernels
	// EffConvSmall derates EffConv for awkward convolutions (1x1
	// kernels, <64 channels, or <=28px outputs), where cuDNN v5.1 on
	// Kepler and Caffe's CPU path both lose most of their efficiency.
	// Calibrated against the paper's ResNet-50/GoogLeNet throughputs.
	EffConvSmall float64
	EffGEMM      float64 // sustained fraction of peak in GEMM kernels
	EffMem       float64 // sustained fraction of bandwidth in streaming kernels

	Launch       float64 // per-kernel overhead, seconds
	PerImageHost float64 // host data path per image, seconds
}

func (d *Roofline) Name() string { return d.DeviceName }

// Key is the roofline's parameters by value.
func (d *Roofline) Key() any { return *d }

func (d *Roofline) op(flops, bytes, eff float64) float64 {
	ct := flops / (d.PeakFlops * eff)
	mt := bytes / (d.MemBW * d.EffMem)
	t := ct
	if mt > t {
		t = mt
	}
	return t + d.Launch
}

func (d *Roofline) Conv(s swdnn.ConvShape, pass swdnn.Pass) float64 {
	ro, co := s.OutDims()
	bytes := 4 * float64(s.B*s.Ni*s.Ri*s.Ci+s.B*s.No*ro*co+s.No*s.Ni*s.K*s.K)
	eff := d.EffConv
	minC := s.Ni
	if s.No < minC {
		minC = s.No
	}
	_ = co
	if d.EffConvSmall > 0 && (s.K == 1 || minC < 64) {
		eff = d.EffConvSmall
	}
	return d.op(s.Flops(), bytes, eff)
}

func (d *Roofline) InnerProduct(b, cin, cout int, pass swdnn.Pass) float64 {
	flops := 2 * float64(b) * float64(cin) * float64(cout)
	// Rounded products: arm64 must not fuse them into the sum.
	bytes := 4 * (float64(float64(cin)*float64(cout)) + float64(float64(b)*float64(cin+cout)))
	return d.op(flops, bytes, d.EffGEMM)
}

func (d *Roofline) Pool(s swdnn.PoolShape) float64 {
	ro, co := s.OutDims()
	n := s.B * s.C
	bytes := 4 * float64(n) * float64(s.Ri*s.Ci+ro*co)
	return d.op(float64(n*ro*co*s.K*s.K), bytes, d.EffConv)
}

func (d *Roofline) Elementwise(n, rIn, wOut int, flopsPerElem float64) float64 {
	return d.op(float64(n)*flopsPerElem, 4*float64(n)*float64(rIn+wOut), d.EffConv)
}

func (d *Roofline) BatchNorm(n int) float64 { return d.Elementwise(n, 3, 1, 8) }

func (d *Roofline) Softmax(b, c int) float64 { return d.Elementwise(b*c, 3, 1, 20) }

func (d *Roofline) InputOverhead(images int) float64 {
	return d.PerImageHost * float64(images)
}

// NewK40m returns the NVIDIA K40m + cuDNN v5.1 comparator
// (Table I: 4.29 TFlops SP, 288 GB/s). Calibration: EffConv/EffGEMM
// land cuDNN-on-Kepler in its measured 30–45% band; PerImageHost
// reproduces the paper's ">40% of AlexNet time is data reading over
// PCI-E" observation at batch 256.
func NewK40m() *Roofline {
	return &Roofline{
		DeviceName:   "K40m",
		PeakFlops:    4.29e12,
		MemBW:        288e9,
		EffConv:      0.34,
		EffConvSmall: 0.12,
		EffGEMM:      0.50,
		EffMem:       0.75,
		Launch:       8e-6,
		PerImageHost: 7.0e-3,
	}
}

// NewXeonCPU returns the 12-core E5-2680 v3 comparator running
// Caffe's CPU path (paper footnote: 68 GB/s, 1.28 TFlops peak).
// Caffe-CPU sustains only a few percent of peak outside of BLAS.
func NewXeonCPU() *Roofline {
	return &Roofline{
		DeviceName:   "E5-2680v3",
		PeakFlops:    1.28e12,
		MemBW:        68e9,
		EffConv:      0.055,
		EffConvSmall: 0.028,
		EffGEMM:      0.25,
		EffMem:       0.60,
		Launch:       2e-6,
		PerImageHost: 1.0e-3,
	}
}

// NewKNL returns the Intel Knights Landing comparator (Table I:
// 6.92 TFlops SP, 475 GB/s MCDRAM). Used only for the Table I
// comparison; the paper reports no KNL layer timings.
func NewKNL() *Roofline {
	return &Roofline{
		DeviceName:   "KNL",
		PeakFlops:    6.92e12,
		MemBW:        475e9,
		EffConv:      0.30,
		EffConvSmall: 0.10,
		EffGEMM:      0.55,
		EffMem:       0.70,
		Launch:       5e-6,
		PerImageHost: 1.0e-3,
	}
}

// Spec is one row of the paper's Table I.
type Spec struct {
	Name         string
	ReleaseYear  int
	BandwidthGB  float64
	FloatTFlops  float64
	DoubleTFlops float64
}

// Table1Specs returns the processor comparison of paper Table I.
func Table1Specs() []Spec {
	return []Spec{
		{"SW26010", 2014, 128, 3.02, 3.02},
		{"Nvidia K40m", 2013, 288, 4.29, 1.43},
		{"Intel KNL", 2016, 475, 6.92, 3.46},
	}
}
