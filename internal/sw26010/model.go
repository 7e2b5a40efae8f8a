// Package sw26010 models the Sunway SW26010 many-core processor that
// powers TaihuLight: 4 core-groups (CGs), each with one management
// processing element (MPE) and an 8x8 mesh of computing processing
// elements (CPEs). Each CPE owns a 64 KB software-managed local
// directive memory (LDM), moves data with an explicit DMA engine, and
// exchanges 256-bit messages with CPEs in the same row or column over
// register buses (register-level communication, RLC).
//
// The package provides two coupled facilities:
//
//   - Model: an analytic hardware model (peak rates, the DMA bandwidth
//     curves of paper Fig. 2, RLC costs) used by kernel planners to
//     estimate execution time of full-scale layers.
//   - CoreGroup/CPE: a functional simulator in which CPEs are
//     goroutines with real LDM buffers, DMA copies and register-bus
//     channels; every operation also advances a per-CPE simulated
//     clock using the same Model, so small-shape functional runs
//     cross-validate the planner estimates.
package sw26010

import "fmt"

// Mesh geometry and per-core constants of the SW26010 (paper Sec. II-A
// and Table I).
const (
	MeshDim       = 8                 // CPE mesh is 8x8
	CPEsPerCG     = MeshDim * MeshDim // 64
	CoreGroups    = 4
	LDMBytes      = 64 * 1024 // 64 KB scratchpad per CPE
	ClockHz       = 1.45e9    // MPE and CPE clock
	FlopsPerCycle = 8         // 256-bit FMA pipeline, double precision

	// RLCGranule is the register-communication message size: one
	// 256-bit register.
	RLCGranule = 32
)

// Derived peak rates (paper Sec. III-A, Principle 1).
const (
	CPEPeakFlops = ClockHz * FlopsPerCycle  // 11.6 GFlops per CPE
	CGPeakFlops  = CPEPeakFlops * CPEsPerCG // 742.4 GFlops per CG
	GB           = 1e9                      // decimal GB used throughout the paper
)

// Model carries the tunable hardware parameters. The defaults are
// digitized from the paper (Figs. 2 and 6, Secs. II-A and III-A); they
// can be perturbed for sensitivity studies.
type Model struct {
	// DMAPeak is the aggregate saturated DMA bandwidth between main
	// memory and the LDMs of one CG, bytes/second. The paper measures
	// ~28 GB/s for both get and put (Principle 2).
	DMAPeak float64
	// DMAPerCPEPeak is the bandwidth one CPE alone can sustain.
	DMAPerCPEPeak float64
	// DMAHalfSize is the per-CPE transfer size (bytes) at which a
	// continuous DMA reaches half of its asymptotic bandwidth; this
	// encodes the "hundreds of cycles" LDM transfer latency of
	// Principle 3 (transfers >= 2 KB hide it).
	DMAHalfSize float64
	// DMAStrideHalfBlock is the strided-access block size (bytes) at
	// which strided DMA reaches half of the continuous bandwidth;
	// Principle 3 asks for blocks >= 256 B.
	DMAStrideHalfBlock float64
	// DMALatency is the fixed issue latency of one DMA descriptor, in
	// seconds (~270 cycles).
	DMALatency float64

	// MPEMemBandwidth is the memory-to-MPE copy bandwidth: only
	// 9.9 GB/s (Principle 2), which is why everything must stage
	// through LDM.
	MPEMemBandwidth float64

	// RLCLatency is the register-bus latency for one 256-bit message
	// (seconds); RLCBytesPerCycle is the per-CPE streaming rate once
	// the FIFO pipeline is full. With 32 B/cycle a full-mesh broadcast
	// sustains ~4.4 TB/s aggregate, matching the 4461 GB/s measured in
	// the paper's reference [7].
	RLCLatency       float64
	RLCBytesPerCycle float64

	// SinglePrecisionRLCPenalty models the absence of single-precision
	// RLC instructions: values are widened to double for the bus and
	// converted inline with SIMD shuffles (paper Sec. IV-A). The
	// penalty multiplies RLC byte volume (2x) and adds convert flops.
	SinglePrecisionRLCPenalty float64

	// LDMBudget is the usable LDM per CPE after reserving space for
	// stack and the kernel's control state.
	LDMBudget int
}

// Default returns the calibrated SW26010 model.
func Default() *Model {
	return &Model{
		DMAPeak:                   28 * GB,
		DMAPerCPEPeak:             5 * GB,
		DMAHalfSize:               512,
		DMAStrideHalfBlock:        96,
		DMALatency:                270 / ClockHz,
		MPEMemBandwidth:           9.9 * GB,
		RLCLatency:                10 / ClockHz,
		RLCBytesPerCycle:          32,
		SinglePrecisionRLCPenalty: 2.0,
		LDMBudget:                 LDMBytes - 4*1024,
	}
}

// DMAMode distinguishes reads (get) from writes (put).
type DMAMode uint8

const (
	DMAGet DMAMode = iota
	DMAPut
)

func (m DMAMode) String() string {
	if m == DMAGet {
		return "get"
	}
	return "put"
}

// DMABandwidth returns the aggregate bandwidth (bytes/s) achieved when
// ncpe CPEs each move sizePerCPE bytes in continuous blocks of
// blockBytes. For continuous access pass blockBytes == sizePerCPE.
// This reproduces the measured curves of paper Fig. 2: bandwidth grows
// with per-CPE transfer size (latency hiding), saturates near 28 GB/s,
// and collapses for small strided blocks.
func (m *Model) DMABandwidth(mode DMAMode, sizePerCPE int64, ncpe int, blockBytes int64) float64 {
	if sizePerCPE <= 0 || ncpe <= 0 {
		return 0
	}
	if blockBytes <= 0 || blockBytes > sizePerCPE {
		blockBytes = sizePerCPE
	}
	// Few CPEs cannot saturate the memory controller.
	peak := m.DMAPeak
	if lim := float64(ncpe) * m.DMAPerCPEPeak; lim < peak {
		peak = lim
	}
	// Latency hiding: per-CPE size must exceed DMAHalfSize to approach
	// the asymptote (Principle 3: >= 2 KB per CPE).
	sizeEff := float64(sizePerCPE) / (float64(sizePerCPE) + m.DMAHalfSize)
	// Strided block granularity: each block pays descriptor overhead,
	// so tiny blocks waste the channel (Principle 3: >= 256 B blocks).
	blockEff := float64(blockBytes) / (float64(blockBytes) + m.DMAStrideHalfBlock)
	bw := peak * sizeEff * blockEff
	if mode == DMAPut {
		// Puts saturate marginally lower in the measured curves.
		bw *= 0.97
	}
	return bw
}

// DMATime returns the wall time for ncpe CPEs to each transfer
// sizePerCPE bytes (in blocks of blockBytes) concurrently.
func (m *Model) DMATime(mode DMAMode, sizePerCPE int64, ncpe int, blockBytes int64) float64 {
	if sizePerCPE <= 0 || ncpe <= 0 {
		return 0
	}
	bw := m.DMABandwidth(mode, sizePerCPE, ncpe, blockBytes)
	total := float64(sizePerCPE) * float64(ncpe)
	return m.DMALatency + total/bw
}

// ComputeTime returns the minimum time for one CG to execute flops
// floating-point operations spread over ncpe CPEs at full SIMD issue.
func (m *Model) ComputeTime(flops float64, ncpe int) float64 {
	if flops <= 0 || ncpe <= 0 {
		return 0
	}
	return flops / (CPEPeakFlops * float64(ncpe))
}

// RLCTime returns the per-CPE time to move bytes over a register bus
// (row or column), assuming a pipelined stream of 256-bit messages.
func (m *Model) RLCTime(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	msgs := (bytes + RLCGranule - 1) / RLCGranule
	return m.RLCLatency + float64(msgs)*float64(RLCGranule)/(m.RLCBytesPerCycle*ClockHz)
}

// MPECopyTime returns the time for the MPE to copy bytes between two
// main-memory regions without staging through LDM (the slow path that
// Principle 2 warns against).
func (m *Model) MPECopyTime(bytes int64) float64 {
	return float64(bytes) / m.MPEMemBandwidth
}

// FlopByteRatio returns the architectural flops-per-byte ratio of one
// CG using the saturated DMA bandwidth: 742.4 GFlops / 28 GB/s = 26.5
// (paper Principle 3).
func (m *Model) FlopByteRatio() float64 { return CGPeakFlops / m.DMAPeak }

func (m *Model) String() string {
	return fmt.Sprintf("SW26010{%.1f GFlops/CG, DMA %.0f GB/s, f:b %.1f}",
		CGPeakFlops/1e9, m.DMAPeak/GB, m.FlopByteRatio())
}
