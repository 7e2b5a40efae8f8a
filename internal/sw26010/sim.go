package sw26010

import (
	"errors"
	"fmt"
	"iter"
	"strings"
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

// errAborted is the sentinel panic that unwinds the CPEs of an aborted
// launch. runKernel recovers it; it never escapes to callers.
var errAborted = errors.New("sw26010: launch aborted")

// CoreGroup is one of the four CGs of an SW26010: an 8x8 CPE mesh plus
// register buses. A CoreGroup is single-kernel: Run launches a kernel
// across the mesh and returns its simulated execution time.
//
// Each CPE is a persistent coroutine (iter.Pull), built by the first
// launch that reaches its position. RunN resumes the launch's CPEs on
// the calling goroutine from a FIFO run queue, first in CPE-ID order; a
// CPE runs until its kernel returns or it waits on an empty bus FIFO or
// the barrier, and the send or last arrival that ends the wait queues
// it again. Simulated time never depends on that order. Warm launches
// allocate nothing; launches on one CoreGroup are serialized, and
// different CoreGroups run concurrently.
type CoreGroup struct {
	Model *Model

	mu    sync.Mutex
	stats Stats

	launchMu sync.Mutex // serializes launches on this CoreGroup
	pes      [CPEsPerCG]*CPE
	built    int
	closed   bool

	// Per-launch state, touched only by the launching goroutine and the
	// coroutines it resumes.
	kernel          func(pe *CPE)
	n, finished     int
	runq            [CPEsPerCG]*CPE // ring: each CPE is queued at most once
	runHead, runLen int
	queued          int     // messages sent and not yet received
	arrived         int     // barrier arrivals of the current generation
	barrierMax      float64 // their maximum clock
	aborted         bool
	failure         string // why the launch aborted, for the caller's panic
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

// Close ends the CPE coroutines. The CoreGroup must not be used after
// Close; Close is idempotent.
func (cg *CoreGroup) Close() {
	cg.launchMu.Lock()
	defer cg.launchMu.Unlock()
	if !cg.closed {
		for _, pe := range cg.pes[:cg.built] {
			pe.stop()
		}
	}
	cg.closed = true
}

// CPE is one computing processing element executing inside a kernel.
// Its methods are called only from the kernel body running on it. CPEs
// run one at a time: a kernel waits on peers only via buses and Barrier.
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

	resume      func() (struct{}, bool) // runs the coroutine to its next yield
	stop        func()
	yield       func(struct{}) bool
	waitBus     *fifo // the empty FIFO this CPE is parked on, if any
	waitBarrier bool  // parked at the barrier
}

// AdvanceClock adds dt seconds of opaque busy time (used by planners
// layering extra costs onto functional runs).
func (pe *CPE) AdvanceClock(dt float64) { pe.clock += dt }

// --- LDM management -------------------------------------------------

// maxLDMFree bounds the per-CPE freelist; LDM is only 64 KB so a
// handful of retained buffers covers every kernel's working set.
const maxLDMFree = 32

// Alloc reserves n float32 slots of LDM and returns the buffer, zeroed.
// It panics if the 64 KB budget would be exceeded — kernels are
// expected to plan their tiling so everything fits (Principle 2).
// Buffers are recycled across Alloc/Release cycles and launches, so a
// kernel must not touch a buffer after releasing its slots.
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
			clear(buf)
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

// send enqueues msg on to's row (or column) FIFO from pe, and queues
// to if it waits on that FIFO.
func (pe *CPE) send(to *CPE, row bool, msg message) {
	f := &to.colIn[pe.Row]
	if row {
		f = &to.rowIn[pe.Col]
	}
	f.q = append(f.q, msg)
	pe.cg.queued++
	if to.waitBus == f {
		to.waitBus = nil
		pe.cg.ready(to)
	}
}

// recv dequeues the next message on f, parking while f is empty, and
// charges its transfer. The popped slot is zeroed so a drained FIFO
// holds no payload.
func (pe *CPE) recv(f *fifo) []float32 {
	for f.head == len(f.q) {
		pe.waitBus = f
		pe.park()
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
func (pe *CPE) RowRecv(fromCol int) []float32 { return pe.recv(&pe.rowIn[fromCol]) }

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
func (pe *CPE) ColRecv(fromRow int) []float32 { return pe.recv(&pe.colIn[fromRow]) }

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

// Barrier synchronizes all CPEs of the launch and aligns their clocks
// to the maximum (athread-style mesh synchronization): every arrival
// but the last parks, and the last releases the others at the maximum.
func (pe *CPE) Barrier() {
	cg := pe.cg
	if pe.clock > cg.barrierMax {
		cg.barrierMax = pe.clock
	}
	if cg.arrived++; cg.arrived < cg.n {
		pe.waitBarrier = true
		pe.park()
		return
	}
	for _, w := range cg.pes[:cg.n] {
		if w.waitBarrier {
			w.waitBarrier, w.clock = false, cg.barrierMax
			cg.ready(w)
		}
	}
	pe.clock = cg.barrierMax
	cg.arrived, cg.barrierMax = 0, 0
}

// park yields to the launching goroutine until a peer makes pe
// runnable, and unwinds with errAborted if the launch is aborted.
func (pe *CPE) park() {
	if !pe.cg.aborted {
		pe.yield(struct{}{})
	}
	if pe.cg.aborted {
		pe.waitBus, pe.waitBarrier = nil, false
		panic(errAborted)
	}
}

// --- kernel launch ----------------------------------------------------

// Run launches kernel on the full 8x8 mesh (athread_spawn) and blocks
// until all CPEs finish (athread_join). It returns the simulated
// execution time: the maximum per-CPE clock.
func (cg *CoreGroup) Run(kernel func(pe *CPE)) float64 {
	return cg.RunN(CPEsPerCG, kernel)
}

// build extends the mesh to the first n positions: a CPE and its
// coroutine for each position in [built, n).
func (cg *CoreGroup) build(n int) {
	for i := cg.built; i < n; i++ {
		pe := &CPE{Row: i / MeshDim, Col: i % MeshDim, ID: i, cg: cg}
		pe.resume, pe.stop = iter.Pull(pe.run)
		cg.pes[i] = pe
	}
	cg.built = max(cg.built, n)
}

// run is pe's coroutine: one kernel per launch, until Close stops it.
func (pe *CPE) run(yield func(struct{}) bool) {
	pe.yield = yield
	for more := true; more; more = yield(struct{}{}) {
		pe.cg.runKernel(pe)
		pe.cg.finished++
	}
}

// runKernel executes the kernel on pe unless the launch is aborted. The
// first real kernel panic is recorded for the caller and aborts it.
func (cg *CoreGroup) runKernel(pe *CPE) {
	defer func() {
		if r := recover(); r != nil && r != errAborted && !cg.aborted {
			cg.failure = fmt.Sprintf("kernel panic on CPE(%d,%d): %v", pe.Row, pe.Col, r)
			cg.abort()
		}
	}()
	if !cg.aborted {
		cg.kernel(pe)
	}
}

// ready appends pe to the run queue.
func (cg *CoreGroup) ready(pe *CPE) {
	cg.runq[(cg.runHead+cg.runLen)%CPEsPerCG] = pe
	cg.runLen++
}

// schedule resumes queued CPEs until the run queue is empty.
func (cg *CoreGroup) schedule() {
	for cg.runLen > 0 {
		pe := cg.runq[cg.runHead]
		cg.runHead = (cg.runHead + 1) % CPEsPerCG
		cg.runLen--
		pe.resume()
	}
}

// abort marks the launch aborted and queues every parked CPE, which
// unwinds with errAborted when resumed.
func (cg *CoreGroup) abort() {
	cg.aborted = true
	for _, pe := range cg.pes[:cg.n] {
		if pe.waitBus != nil || pe.waitBarrier {
			pe.waitBus, pe.waitBarrier = nil, false
			cg.ready(pe)
		}
	}
}

// deadlock describes a launch whose unfinished CPEs all wait: one line
// per CPE naming the bus and its source, or the barrier.
func (cg *CoreGroup) deadlock() string {
	var b strings.Builder
	fmt.Fprintf(&b, "launch deadlocked: %d of %d CPEs wait and none can run", cg.n-cg.finished, cg.n)
	for _, pe := range cg.pes[:cg.n] {
		if pe.waitBarrier {
			fmt.Fprintf(&b, "\n\tCPE(%d,%d) waits at the barrier", pe.Row, pe.Col)
		}
		for j := range MeshDim {
			switch pe.waitBus {
			case &pe.rowIn[j]:
				fmt.Fprintf(&b, "\n\tCPE(%d,%d) waits on the row bus from CPE(%d,%d)", pe.Row, pe.Col, pe.Row, j)
			case &pe.colIn[j]:
				fmt.Fprintf(&b, "\n\tCPE(%d,%d) waits on the column bus from CPE(%d,%d)", pe.Row, pe.Col, j, pe.Col)
			}
		}
	}
	return b.String()
}

// RunN launches kernel on the first n CPEs in row-major order. Only
// they participate, and DMA contention is charged for n active CPEs; a
// register-bus send may also target a position an earlier, larger
// launch built (the message is dropped afterwards), but one to a
// position no launch has reached panics.
//
// Concurrent calls on one CoreGroup are serialized. If the kernel
// panics on any CPE, or every unfinished CPE waits (deadlock), the
// launch aborts: every CPE unwinds, the buses are emptied, and the
// panic is re-raised on the caller; the CoreGroup remains usable.
func (cg *CoreGroup) RunN(n int, kernel func(pe *CPE)) float64 {
	if n <= 0 || n > CPEsPerCG {
		panic(fmt.Sprintf("sw26010: RunN n=%d out of range", n))
	}
	cg.launchMu.Lock()
	defer cg.launchMu.Unlock()
	if cg.closed {
		panic("sw26010: RunN on a closed CoreGroup")
	}
	cg.build(n)

	// Reset per-launch state in place and queue the CPEs in ID order.
	cg.kernel, cg.n = kernel, n
	cg.finished, cg.arrived, cg.barrierMax = 0, 0, 0
	cg.aborted, cg.failure = false, ""
	for i, pe := range cg.pes[:n] {
		pe.Active = n
		pe.clock = 0
		pe.stats = Stats{}
		pe.ldmUsed, pe.ldmPeak = 0, 0
		pe.ldmLive = pe.ldmLive[:0]
		cg.runq[i] = pe
	}
	cg.runHead, cg.runLen = 0, n
	cg.schedule()
	if cg.finished < n {
		cg.failure = cg.deadlock()
		cg.abort()
		cg.schedule()
	}
	cg.kernel = nil

	// A well-formed kernel consumes every message it sends; if not,
	// drop the FIFOs so the next launch starts clean.
	if cg.queued != 0 {
		for _, pe := range cg.pes[:cg.built] {
			pe.rowIn, pe.colIn = [MeshDim]fifo{}, [MeshDim]fifo{}
		}
		cg.queued = 0
	}
	if cg.failure != "" {
		panic("sw26010: " + cg.failure)
	}

	var maxClock float64
	var agg Stats
	for _, pe := range cg.pes[:n] {
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
