package sw26010

import (
	"fmt"
	"sync"
)

// Stats accumulates simulated activity for one kernel launch.
type Stats struct {
	DMAGetBytes int64
	DMAPutBytes int64
	RLCBytes    int64
	RLCMsgs     int64
	Flops       float64
	DMATime     float64 // summed per-CPE DMA busy time
	ComputeTime float64 // summed per-CPE compute busy time
	RLCTime     float64 // summed per-CPE bus busy time
	LDMHighTide int     // max LDM bytes live on any CPE
}

// Add accumulates o into s: counters sum, LDMHighTide takes the max.
// Used by the node/cluster layers to aggregate CoreGroup stats.
func (s *Stats) Add(o *Stats) {
	s.DMAGetBytes += o.DMAGetBytes
	s.DMAPutBytes += o.DMAPutBytes
	s.RLCBytes += o.RLCBytes
	s.RLCMsgs += o.RLCMsgs
	s.Flops += o.Flops
	s.DMATime += o.DMATime
	s.ComputeTime += o.ComputeTime
	s.RLCTime += o.RLCTime
	if o.LDMHighTide > s.LDMHighTide {
		s.LDMHighTide = o.LDMHighTide
	}
}

// message is one register-bus transfer. Payloads are carried as
// float32 on the host; the bus charges double-precision width because
// SW26010 has no single-precision RLC instructions (Sec. IV-A).
type message struct {
	data []float32
	ts   float64 // sender's simulated clock when the message entered the bus
}

// fifo is one register-bus queue from one source CPE, in send order:
// a plain slice that keeps its backing array across launches. Sends
// never block (occupancy is not part of the timing model).
type fifo struct {
	q    []message
	head int
}

// CoreGroup is one of the four CGs of an SW26010: an 8x8 CPE mesh plus
// register buses. A CoreGroup is single-kernel: a launch runs a kernel
// across the mesh and returns its simulated execution time.
//
// A launch runs on the calling goroutine in bulk-synchronous supersteps
// (Valiant, "A Bridging Model for Parallel Computation", CACM 1990): a
// superstep runs its step on each CPE to completion, in CPE-ID order.
// Run and RunN are one superstep; RunSteps runs a program of several,
// with Mesh.Barrier where the CPEs synchronize. A register-bus receive
// takes a message posted earlier on the host, by an earlier superstep
// or a lower-numbered CPE of this one. A CPE's clock moves only by its
// own charges and by a receive's max(own, sent), so simulated time
// never depends on the host order. Warm launches allocate nothing;
// launches on one CoreGroup are serialized, and different CoreGroups
// run concurrently.
type CoreGroup struct {
	Model *Model

	mu    sync.Mutex
	stats Stats

	launchMu sync.Mutex // serializes launches on this CoreGroup
	pes      [CPEsPerCG]*CPE
	built    int
	mesh     Mesh // the running launch's handle
	queued   int  // messages sent and not yet received
}

// NewCoreGroup builds a CG around the given hardware model.
func NewCoreGroup(m *Model) *CoreGroup {
	if m == nil {
		m = Default()
	}
	return &CoreGroup{Model: m}
}

// Stats returns the accumulated statistics of all kernels run so far.
func (cg *CoreGroup) Stats() Stats {
	cg.mu.Lock()
	defer cg.mu.Unlock()
	return cg.stats
}

// ResetStats clears accumulated statistics.
func (cg *CoreGroup) ResetStats() {
	cg.mu.Lock()
	defer cg.mu.Unlock()
	cg.stats = Stats{}
}

// Close releases the CoreGroup. A CoreGroup holds no goroutine or
// other resource beyond its memory, so Close does nothing; it is kept
// so owners can release every CoreGroup alike.
func (cg *CoreGroup) Close() {}

// CPE is one computing processing element executing inside a kernel.
// Its methods are called only from the kernel body running on it.
type CPE struct {
	Row, Col int // mesh coordinates, 0..7
	ID       int // Row*8 + Col
	Active   int // number of CPEs participating in this launch

	cg    *CoreGroup
	clock float64
	stats Stats

	ldmUsed int
	ldmPeak int
	ldmLive [][]float32 // outstanding Alloc buffers (recycling bookkeeping)
	ldmFree [][]float32 // released buffers available for reuse

	rowIn [MeshDim]fifo // rowIn[srcCol]: messages from (Row, srcCol)
	colIn [MeshDim]fifo // colIn[srcRow]: messages from (srcRow, Col)
}

// --- LDM management -------------------------------------------------

// maxLDMFree bounds the per-CPE freelist; LDM is only 64 KB so a
// handful of retained buffers covers every kernel's working set.
const maxLDMFree = 32

// Alloc reserves n float32 slots of LDM and returns the buffer. Its
// contents are unspecified, as the hardware's LDM is: a kernel writes
// every element it reads. Alloc panics if the 64 KB budget would be
// exceeded — kernels are expected to plan their tiling so everything
// fits (Principle 2). Buffers are recycled across Alloc/Release cycles
// and launches, so a kernel must not touch a buffer after releasing
// its slots.
func (pe *CPE) Alloc(n int) []float32 {
	bytes := n * 4
	if pe.ldmUsed+bytes > pe.cg.Model.LDMBudget {
		panic(fmt.Sprintf("sw26010: CPE(%d,%d) LDM overflow: %d + %d > %d budget",
			pe.Row, pe.Col, pe.ldmUsed, bytes, pe.cg.Model.LDMBudget))
	}
	pe.ldmUsed += bytes
	if pe.ldmUsed > pe.ldmPeak {
		pe.ldmPeak = pe.ldmUsed
	}
	for i := len(pe.ldmFree) - 1; i >= 0; i-- {
		if cap(pe.ldmFree[i]) >= n {
			buf := pe.ldmFree[i][:n]
			pe.ldmFree[i] = pe.ldmFree[len(pe.ldmFree)-1]
			pe.ldmFree = pe.ldmFree[:len(pe.ldmFree)-1]
			pe.ldmLive = append(pe.ldmLive, buf)
			return buf
		}
	}
	buf := make([]float32, n)
	pe.ldmLive = append(pe.ldmLive, buf)
	return buf
}

// Release returns n float32 slots to the LDM budget (arena style: the
// caller frees what it allocated, typically per outer-loop tile).
//
// Recycling contract: Release frees the *most recently allocated*
// outstanding buffer of exactly n slots and makes it eligible for
// reuse by a later Alloc. When a kernel holds several same-size
// buffers, it must therefore release them newest-first relative to
// the ones it keeps using (releasing an older same-size buffer while
// still writing a newer one would let Alloc recycle the in-use one).
// Every in-tree kernel follows this stack discipline naturally;
// buffers of distinct sizes are unconstrained.
func (pe *CPE) Release(n int) {
	pe.ldmUsed -= n * 4
	if pe.ldmUsed < 0 {
		panic("sw26010: LDM release underflow")
	}
	for i := len(pe.ldmLive) - 1; i >= 0; i-- {
		if len(pe.ldmLive[i]) == n {
			buf := pe.ldmLive[i]
			// Ordered removal: ldmLive must stay in allocation order or
			// the newest-first size matching above breaks.
			pe.ldmLive = append(pe.ldmLive[:i], pe.ldmLive[i+1:]...)
			if len(pe.ldmFree) < maxLDMFree {
				pe.ldmFree = append(pe.ldmFree, buf)
			}
			return
		}
	}
}

// --- DMA ------------------------------------------------------------

// DMAGet copies len(dst) float32 values from main memory (src) into
// LDM (dst) as one continuous transfer and charges the simulated cost.
func (pe *CPE) DMAGet(dst, src []float32) {
	if len(src) < len(dst) {
		panic("sw26010: DMAGet source shorter than destination")
	}
	copy(dst, src[:len(dst)])
	pe.chargeDMA(DMAGet, int64(len(dst))*4, int64(len(dst))*4)
}

// DMAPut copies len(src) float32 values from LDM (src) to main memory
// (dst) as one continuous transfer.
func (pe *CPE) DMAPut(dst, src []float32) {
	if len(dst) < len(src) {
		panic("sw26010: DMAPut destination shorter than source")
	}
	copy(dst, src)
	pe.chargeDMA(DMAPut, int64(len(src))*4, int64(len(src))*4)
}

// DMAGetStrided gathers rows blocks of blockLen float32 values from
// main memory, where consecutive blocks are srcStride elements apart,
// into a packed LDM buffer. This is the strided DMA access pattern of
// Fig. 2 (right): bandwidth depends on the block size.
func (pe *CPE) DMAGetStrided(dst, src []float32, rows, blockLen, srcStride int) {
	if len(dst) < rows*blockLen {
		panic("sw26010: DMAGetStrided destination too small")
	}
	for r := 0; r < rows; r++ {
		copy(dst[r*blockLen:(r+1)*blockLen], src[r*srcStride:r*srcStride+blockLen])
	}
	pe.chargeDMA(DMAGet, int64(rows*blockLen)*4, int64(blockLen)*4)
}

// DMAPutStrided scatters rows blocks of blockLen values from a packed
// LDM buffer into main memory with stride dstStride.
func (pe *CPE) DMAPutStrided(dst, src []float32, rows, blockLen, dstStride int) {
	if len(src) < rows*blockLen {
		panic("sw26010: DMAPutStrided source too small")
	}
	for r := 0; r < rows; r++ {
		copy(dst[r*dstStride:r*dstStride+blockLen], src[r*blockLen:(r+1)*blockLen])
	}
	pe.chargeDMA(DMAPut, int64(rows*blockLen)*4, int64(blockLen)*4)
}

func (pe *CPE) chargeDMA(mode DMAMode, bytes, block int64) {
	m := pe.cg.Model
	bw := m.DMABandwidth(mode, bytes, pe.Active, block)
	t := m.DMALatency + float64(bytes)/(bw/float64(pe.Active))
	pe.clock += t
	pe.stats.DMATime += t
	if mode == DMAGet {
		pe.stats.DMAGetBytes += bytes
	} else {
		pe.stats.DMAPutBytes += bytes
	}
}

// --- Compute --------------------------------------------------------

// ChargeFlops advances the clock by the time the CPE's SIMD pipeline
// needs for n floating-point operations.
func (pe *CPE) ChargeFlops(n float64) {
	t := n / CPEPeakFlops
	pe.clock += t
	pe.stats.ComputeTime += t
	pe.stats.Flops += n
}

// --- Register-level communication ------------------------------------

func (pe *CPE) chargeRLCSend(bytes int64) float64 {
	m := pe.cg.Model
	eff := int64(float64(bytes) * m.SinglePrecisionRLCPenalty)
	t := m.RLCTime(eff)
	pe.clock += t
	pe.stats.RLCTime += t
	pe.stats.RLCBytes += eff
	pe.stats.RLCMsgs += (eff + RLCGranule - 1) / RLCGranule
	return pe.clock
}

func (pe *CPE) chargeRLCRecv(ts float64, bytes int64) {
	m := pe.cg.Model
	eff := int64(float64(bytes) * m.SinglePrecisionRLCPenalty)
	t := m.RLCTime(eff)
	if ts > pe.clock {
		pe.clock = ts
	}
	pe.clock += t
	pe.stats.RLCTime += t
}

// send enqueues msg on to's row (or column) FIFO from pe.
func (pe *CPE) send(to *CPE, row bool, msg message) {
	f := &to.colIn[pe.Row]
	if row {
		f = &to.rowIn[pe.Col]
	}
	f.q = append(f.q, msg)
	pe.cg.queued++
}

// recv dequeues the next message on f, from the CPE at (row, col), and
// charges its transfer. The message must have been posted earlier on
// the host; an empty FIFO panics naming the bus and its source. The
// popped slot is zeroed so a drained FIFO holds no payload.
func (pe *CPE) recv(f *fifo, bus string, row, col int) []float32 {
	if f.head == len(f.q) {
		panic(fmt.Sprintf("sw26010: CPE(%d,%d) receives on the %s bus from CPE(%d,%d), which has sent it nothing",
			pe.Row, pe.Col, bus, row, col))
	}
	msg := f.q[f.head]
	f.q[f.head] = message{}
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	pe.cg.queued--
	pe.chargeRLCRecv(msg.ts, int64(len(msg.data))*4)
	return msg.data
}

// RowBroadcast sends data to every other CPE in the same row (the
// hardware broadcast mode of the row register bus).
func (pe *CPE) RowBroadcast(data []float32) {
	msg := message{data, pe.chargeRLCSend(int64(len(data)) * 4)}
	for c := range MeshDim {
		if c != pe.Col {
			pe.send(pe.peer(pe.Row, c), true, msg)
		}
	}
}

// RowRecv receives a message sent on this row by the CPE in column
// fromCol (either broadcast or P2P).
func (pe *CPE) RowRecv(fromCol int) []float32 {
	return pe.recv(&pe.rowIn[fromCol], "row", pe.Row, fromCol)
}

// ColBroadcast sends data to every other CPE in the same column.
func (pe *CPE) ColBroadcast(data []float32) {
	msg := message{data, pe.chargeRLCSend(int64(len(data)) * 4)}
	for r := range MeshDim {
		if r != pe.Row {
			pe.send(pe.peer(r, pe.Col), false, msg)
		}
	}
}

// ColRecv receives a message sent on this column by the CPE in row
// fromRow.
func (pe *CPE) ColRecv(fromRow int) []float32 {
	return pe.recv(&pe.colIn[fromRow], "column", fromRow, pe.Col)
}

// peer returns the CPE at (row, col), which must be one the launches
// so far have built: the buses of a position no launch ever reached do
// not exist.
func (pe *CPE) peer(row, col int) *CPE {
	if p := pe.cg.pes[row*MeshDim+col]; p != nil {
		return p
	}
	panic(fmt.Sprintf("sw26010: CPE(%d,%d) sends to CPE(%d,%d), which no launch on this CoreGroup has built (the launch runs %d CPEs)",
		pe.Row, pe.Col, row, col, pe.Active))
}

// --- kernel launch ----------------------------------------------------

// Mesh is a RunSteps program's handle on the CPEs of its launch.
type Mesh struct {
	pes []*CPE
	cur *CPE // the CPE Each is running, named by a kernel panic
}

// Each runs step on every CPE of the launch in ID order: one superstep.
func (m *Mesh) Each(step func(pe *CPE)) {
	for _, pe := range m.pes {
		m.cur = pe
		step(pe)
	}
	m.cur = nil
}

// Barrier synchronizes all CPEs of the launch and aligns their clocks
// to the maximum (athread-style mesh synchronization).
func (m *Mesh) Barrier() {
	var t float64
	for _, pe := range m.pes {
		if pe.clock > t {
			t = pe.clock
		}
	}
	for _, pe := range m.pes {
		pe.clock = t
	}
}

// Run launches kernel on the full 8x8 mesh (athread_spawn) and returns
// when all CPEs finish (athread_join): one superstep. It returns the
// simulated execution time: the maximum per-CPE clock.
func (cg *CoreGroup) Run(kernel func(pe *CPE)) float64 {
	return cg.RunN(CPEsPerCG, kernel)
}

// RunN launches kernel on the first n CPEs in row-major order, as one
// superstep. Only they participate, and DMA contention is charged for
// n active CPEs.
func (cg *CoreGroup) RunN(n int, kernel func(pe *CPE)) float64 {
	return cg.RunSteps(n, func(m *Mesh) { m.Each(kernel) })
}

// build extends the mesh to the first n positions: a CPE for each
// position in [built, n).
func (cg *CoreGroup) build(n int) {
	for i := cg.built; i < n; i++ {
		cg.pes[i] = &CPE{Row: i / MeshDim, Col: i % MeshDim, ID: i, cg: cg}
	}
	cg.built = max(cg.built, n)
}

// drop empties every bus FIFO, so the next launch starts clean.
func (cg *CoreGroup) drop() {
	for _, pe := range cg.pes[:cg.built] {
		pe.rowIn, pe.colIn = [MeshDim]fifo{}, [MeshDim]fifo{}
	}
	cg.queued = 0
}

// RunSteps launches program on the first n CPEs in row-major order.
// The program runs on the calling goroutine and drives the CPEs in
// supersteps through its Mesh; it must not keep the Mesh. A
// register-bus send may also target a position an earlier, larger
// launch built (the message is dropped afterwards), but one to a
// position no launch has reached panics.
//
// Concurrent calls on one CoreGroup are serialized. A panic in a step
// is re-raised on the caller naming its CPE; the buses are emptied and
// the CoreGroup remains usable.
func (cg *CoreGroup) RunSteps(n int, program func(m *Mesh)) float64 {
	if n <= 0 || n > CPEsPerCG {
		panic(fmt.Sprintf("sw26010: a launch on n=%d CPEs is out of range", n))
	}
	cg.launchMu.Lock()
	defer cg.launchMu.Unlock()
	cg.build(n)
	m := &cg.mesh
	m.pes = cg.pes[:n]
	for _, pe := range m.pes {
		pe.Active = n
		pe.clock = 0
		pe.stats = Stats{}
		pe.ldmUsed, pe.ldmPeak = 0, 0
		pe.ldmLive = pe.ldmLive[:0]
	}
	defer func() {
		if r := recover(); r != nil {
			cg.drop()
			if pe := m.cur; pe != nil {
				m.cur = nil
				panic(fmt.Sprintf("sw26010: kernel panic on CPE(%d,%d): %v", pe.Row, pe.Col, r))
			}
			panic(r)
		}
	}()
	program(m)

	// A well-formed kernel consumes every message it sends; if not,
	// drop the FIFOs so the next launch starts clean.
	if cg.queued != 0 {
		cg.drop()
	}
	var maxClock float64
	var agg Stats
	for _, pe := range m.pes {
		if pe.clock > maxClock {
			maxClock = pe.clock
		}
		if pe.ldmUsed != 0 {
			panic(fmt.Sprintf("sw26010: CPE(%d,%d) leaked %d bytes of LDM", pe.Row, pe.Col, pe.ldmUsed))
		}
		pe.stats.LDMHighTide = pe.ldmPeak
		agg.Add(&pe.stats)
	}
	cg.mu.Lock()
	cg.stats.Add(&agg)
	cg.mu.Unlock()
	return maxClock
}
