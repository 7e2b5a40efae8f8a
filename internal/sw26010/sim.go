package sw26010

import (
	"errors"
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

// errAborted is the sentinel panic value used to unwind CPE goroutines
// blocked on buses or barriers when a peer's kernel panics. Workers
// recover it and return to the pool; it never escapes to callers.
var errAborted = errors.New("sw26010: launch aborted by peer panic")

// CoreGroup is one of the four CGs of an SW26010: an 8x8 CPE mesh plus
// register buses. A CoreGroup is single-kernel: Run launches a kernel
// across the mesh and returns its simulated execution time.
//
// Execution engine: the CPE structs, their bus channels and their
// worker goroutines are created once and reused for every subsequent
// launch (athread-style persistent thread pool). The mesh is built to
// demand: a launch on n CPEs builds the positions below n that no
// earlier launch has, so a CoreGroup that only ever runs one-CPE
// launches pays for one CPE, not sixty-four. RunN is a dispatch/join
// handshake over that pool; per-launch state (clock, stats, LDM
// accounting) is reset in place, so steady-state launches allocate
// nothing on the host. Launches on one CoreGroup are serialized by an
// internal lock; simulated results are identical to spawning fresh
// goroutines per launch, only the host-side cost differs. Call Close
// when permanently done with a CoreGroup to stop its workers (optional
// for process-lifetime groups).
type CoreGroup struct {
	Model *Model

	// busDepth is the FIFO depth of each bus queue. The hardware FIFO
	// is 4 messages deep; the functional simulator uses a deeper
	// buffer purely to avoid host-side goroutine stalls (occupancy is
	// not part of the timing model).
	busDepth int

	mu    sync.Mutex
	stats Stats

	// Persistent execution engine, built by the launches that first
	// need it (see ensureWorkers): pes has all 64 mesh positions, of
	// which the first built hold a CPE with its worker and, in a mesh
	// of more than one (see wired), its bus FIFOs.
	launchMu sync.Mutex // serializes launches on this CoreGroup
	pes      []*CPE
	built    int
	barrier  *barrier
	done     chan workerResult
	closed   bool

	// Per-launch state, written under launchMu before dispatch.
	kernel    func(pe *CPE)
	abort     chan struct{}
	abortOnce *sync.Once
}

type workerResult struct {
	panicMsg string // non-empty when the kernel panicked with a real error
}

// NewCoreGroup builds a CG around the given hardware model.
func NewCoreGroup(m *Model) *CoreGroup {
	if m == nil {
		m = Default()
	}
	return &CoreGroup{Model: m, busDepth: 64}
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

// Close stops the worker pool. The CoreGroup must not be used after
// Close. Closing a CoreGroup that never ran a kernel is a no-op;
// Close is idempotent.
func (cg *CoreGroup) Close() {
	cg.launchMu.Lock()
	defer cg.launchMu.Unlock()
	if !cg.closed {
		for _, pe := range cg.pes[:cg.built] {
			close(pe.start)
		}
	}
	cg.closed = true
}

// CPE is one computing processing element executing inside a kernel.
// All methods must be called only from the goroutine that runs the
// kernel body for this CPE.
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

	// sent/received count bus messages enqueued by / dequeued on this
	// CPE; the engine compares the totals after a launch to decide
	// whether any FIFO needs draining before the next launch.
	sent     int64
	received int64

	rowIn [MeshDim]chan message // rowIn[srcCol]: messages from (Row, srcCol)
	colIn [MeshDim]chan message // colIn[srcRow]: messages from (srcRow, Col)

	start   chan struct{} // launch dispatch signal from the host
	barrier *barrier
	peers   []*CPE
}

// Clock returns the CPE's simulated time in seconds since kernel launch.
func (pe *CPE) Clock() float64 { return pe.clock }

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

// busSend enqueues a message, aborting if the launch is unwinding
// after a peer panic (so no sender blocks forever on a full FIFO).
func (pe *CPE) busSend(ch chan message, msg message) {
	pe.sent++
	select {
	case ch <- msg:
		return
	default:
	}
	select {
	case ch <- msg:
	case <-pe.cg.abort:
		panic(errAborted)
	}
}

// busRecv dequeues a message, aborting if the launch is unwinding.
func (pe *CPE) busRecv(ch chan message) message {
	pe.received++
	select {
	case msg := <-ch:
		return msg
	default:
	}
	select {
	case msg := <-ch:
		return msg
	case <-pe.cg.abort:
		panic(errAborted)
	}
}

// RowBroadcast sends data to every other CPE in the same row (the
// hardware broadcast mode of the row register bus).
func (pe *CPE) RowBroadcast(data []float32) {
	ts := pe.chargeRLCSend(int64(len(data)) * 4)
	msg := message{data: data, ts: ts}
	for c := 0; c < MeshDim; c++ {
		if c == pe.Col {
			continue
		}
		pe.busSend(pe.peer(pe.Row, c).rowIn[pe.Col], msg)
	}
}

// RowRecv receives a message sent on this row by the CPE in column
// fromCol (either broadcast or P2P).
func (pe *CPE) RowRecv(fromCol int) []float32 {
	msg := pe.busRecv(pe.rowIn[fromCol])
	pe.chargeRLCRecv(msg.ts, int64(len(msg.data))*4)
	return msg.data
}

// RowSend performs a P2P transfer to (Row, toCol).
func (pe *CPE) RowSend(toCol int, data []float32) {
	if toCol == pe.Col {
		panic("sw26010: RowSend to self")
	}
	ts := pe.chargeRLCSend(int64(len(data)) * 4)
	pe.busSend(pe.peer(pe.Row, toCol).rowIn[pe.Col], message{data: data, ts: ts})
}

// ColBroadcast sends data to every other CPE in the same column.
func (pe *CPE) ColBroadcast(data []float32) {
	ts := pe.chargeRLCSend(int64(len(data)) * 4)
	msg := message{data: data, ts: ts}
	for r := 0; r < MeshDim; r++ {
		if r == pe.Row {
			continue
		}
		pe.busSend(pe.peer(r, pe.Col).colIn[pe.Row], msg)
	}
}

// ColRecv receives a message sent on this column by the CPE in row
// fromRow.
func (pe *CPE) ColRecv(fromRow int) []float32 {
	msg := pe.busRecv(pe.colIn[fromRow])
	pe.chargeRLCRecv(msg.ts, int64(len(msg.data))*4)
	return msg.data
}

// peer returns the CPE at (row, col), which must be one the launches
// so far have built: the buses of a position no launch ever reached do
// not exist.
func (pe *CPE) peer(row, col int) *CPE {
	if p := pe.peers[row*MeshDim+col]; p != nil {
		return p
	}
	panic(fmt.Sprintf("sw26010: CPE(%d,%d) sends to CPE(%d,%d), which no launch on this CoreGroup has built (the launch runs %d CPEs)",
		pe.Row, pe.Col, row, col, pe.Active))
}

// Barrier synchronizes all CPEs of the launch and aligns their clocks
// to the maximum (athread-style mesh synchronization).
func (pe *CPE) Barrier() {
	pe.clock = pe.barrier.wait(pe.clock)
}

// --- barrier ----------------------------------------------------------

type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	maxT    float64
	// release is the clock every waiter of the just-completed
	// generation aligns to. Reading maxT directly after waking would
	// race with fast CPEs that already entered the next generation and
	// raised maxT, making simulated time scheduling-dependent (a bug
	// the pre-pool engine had). release can only be overwritten when
	// the next generation completes, which requires every waiter of
	// this generation to have returned first — so it is stable.
	release float64
	gen     int
	aborted bool
}

func newBarrier() *barrier {
	b := &barrier{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// reset prepares the barrier for a fresh launch of n participants.
func (b *barrier) reset(n int) {
	b.mu.Lock()
	b.n = n
	b.waiting = 0
	b.maxT = 0
	b.release = 0
	b.aborted = false
	b.mu.Unlock()
}

// abortAll wakes every waiter; they unwind with errAborted.
func (b *barrier) abortAll() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *barrier) wait(t float64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		panic(errAborted)
	}
	if t > b.maxT {
		b.maxT = t
	}
	b.waiting++
	gen := b.gen
	if b.waiting == b.n {
		b.waiting = 0
		b.release = b.maxT
		b.gen++
		b.cond.Broadcast()
		return b.release
	}
	for gen == b.gen && !b.aborted {
		b.cond.Wait()
	}
	if b.aborted {
		panic(errAborted)
	}
	return b.release
}

// --- kernel launch ----------------------------------------------------

// Run launches kernel on the full 8x8 mesh (athread_spawn) and blocks
// until all CPEs finish (athread_join). It returns the simulated
// execution time: the maximum per-CPE clock.
func (cg *CoreGroup) Run(kernel func(pe *CPE)) float64 {
	return cg.RunN(CPEsPerCG, kernel)
}

// ensureWorkers extends the persistent mesh to the first n positions:
// a CPE struct and its worker goroutine for each position in
// [built, n), and the bus FIFOs of every built CPE that lacks them —
// unless the mesh is a single CPE, which has nobody to hear from (the
// 16 FIFOs are 34 kB, nearly all a CPE costs, and the trainers' pass
// launches never run a second one). Every CPE sees the whole position
// table, so one built by an earlier launch reaches the new ones. Runs
// under launchMu, before the dispatch whose start signal publishes the
// new entries to the workers.
func (cg *CoreGroup) ensureWorkers(n int) {
	wired := cg.wired()
	if cg.pes == nil {
		cg.pes = make([]*CPE, CPEsPerCG)
		cg.barrier = newBarrier()
		cg.done = make(chan workerResult, CPEsPerCG)
	}
	for i := cg.built; i < n; i++ {
		pe := &CPE{Row: i / MeshDim, Col: i % MeshDim, ID: i, cg: cg,
			barrier: cg.barrier, start: make(chan struct{}, 1), peers: cg.pes}
		cg.pes[i] = pe
		go cg.worker(pe)
	}
	cg.built = max(cg.built, n)
	for _, pe := range cg.pes[wired:cg.wired()] {
		for j := 0; j < MeshDim; j++ {
			pe.rowIn[j] = make(chan message, cg.busDepth)
			pe.colIn[j] = make(chan message, cg.busDepth)
		}
	}
}

// wired is how many of the built CPEs have their bus FIFOs: all of
// them, or none while the mesh is a single CPE.
func (cg *CoreGroup) wired() int {
	if cg.built > 1 {
		return cg.built
	}
	return 0
}

// worker is the persistent goroutine of one CPE: it waits for a
// dispatch signal, runs the launch's kernel, reports, and loops.
func (cg *CoreGroup) worker(pe *CPE) {
	for range pe.start {
		cg.done <- workerResult{panicMsg: cg.runKernel(pe)}
	}
}

// runKernel executes the current kernel on pe, converting a panic into
// a report for the host. A real kernel panic triggers launch abort so
// peers blocked on buses or barriers unwind instead of leaking.
func (cg *CoreGroup) runKernel(pe *CPE) (panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			if r == errAborted {
				return // unwound by a peer's panic; nothing to report
			}
			panicMsg = fmt.Sprintf("CPE(%d,%d): %v", pe.Row, pe.Col, r)
			cg.abortLaunch()
		}
	}()
	cg.kernel(pe)
	return ""
}

// abortLaunch unblocks every CPE of the current launch exactly once.
func (cg *CoreGroup) abortLaunch() {
	cg.abortOnce.Do(func() {
		close(cg.abort)
		cg.barrier.abortAll()
	})
}

// drainBuses empties every bus FIFO so a leftover message cannot leak
// into the next launch (after a panic, or when a kernel enqueued more
// messages than its peers consumed).
func (cg *CoreGroup) drainBuses() {
	for _, pe := range cg.pes[:cg.wired()] {
		for j := 0; j < MeshDim; j++ {
			for len(pe.rowIn[j]) > 0 {
				<-pe.rowIn[j]
			}
			for len(pe.colIn[j]) > 0 {
				<-pe.colIn[j]
			}
		}
	}
}

// RunN launches kernel on the first n CPEs in row-major order. Only
// they participate, and DMA contention is charged for n active CPEs; a
// register-bus send may also target a position an earlier, larger
// launch built (the message is drained afterwards), but one to a
// position no launch has reached panics.
//
// RunN dispatches onto the persistent worker pool; concurrent calls on
// one CoreGroup are serialized. If the kernel panics on any CPE the
// launch is aborted, every worker returns to the pool (no goroutine
// leaks), the buses are drained, and the panic is re-raised on the
// calling goroutine; the CoreGroup remains usable.
func (cg *CoreGroup) RunN(n int, kernel func(pe *CPE)) float64 {
	if n <= 0 || n > CPEsPerCG {
		panic(fmt.Sprintf("sw26010: RunN n=%d out of range", n))
	}
	cg.launchMu.Lock()
	defer cg.launchMu.Unlock()
	if cg.closed {
		panic("sw26010: RunN on a closed CoreGroup")
	}
	cg.ensureWorkers(n)

	// Reset per-launch state in place.
	cg.kernel = kernel
	cg.abort = make(chan struct{})
	cg.abortOnce = new(sync.Once)
	cg.barrier.reset(n)
	for i := 0; i < n; i++ {
		pe := cg.pes[i]
		pe.Active = n
		pe.clock = 0
		pe.stats = Stats{}
		pe.ldmUsed, pe.ldmPeak = 0, 0
		pe.ldmLive = pe.ldmLive[:0]
		pe.sent, pe.received = 0, 0
	}

	// Dispatch and join.
	for i := 0; i < n; i++ {
		cg.pes[i].start <- struct{}{}
	}
	var panicMsg string
	for i := 0; i < n; i++ {
		if r := <-cg.done; r.panicMsg != "" && panicMsg == "" {
			panicMsg = r.panicMsg
		}
	}
	if panicMsg != "" {
		cg.drainBuses()
		panic("sw26010: kernel panic on " + panicMsg)
	}

	// A well-formed kernel consumes every message it sends; if not,
	// drain so the next launch starts with empty FIFOs.
	var sent, received int64
	for i := 0; i < n; i++ {
		sent += cg.pes[i].sent
		received += cg.pes[i].received
	}
	if sent != received {
		cg.drainBuses()
	}

	var maxClock float64
	var agg Stats
	for i := 0; i < n; i++ {
		pe := cg.pes[i]
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
