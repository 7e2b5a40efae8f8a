// Package swnode models one full SW26010 node: the four core groups
// of the chip driven concurrently through an asynchronous stream/event
// API (paper Algorithm 1 and Fig. 5 run the four CGs as independent
// "threads" over quarter mini-batches; the multi-node pipeline of
// Sec. V-A overlaps gradient communication with their backward work).
//
// The design splits wall-clock concurrency from simulated time:
//
//   - Launches placed on different CoreGroups execute concurrently on
//     the host (each CoreGroup's CPEs are coroutines resumed by the
//     goroutine running its launch), so independent kernels overlap in
//     real time.
//   - Simulated clocks stay deterministic: a launch's modeled interval
//     [SimStart, SimEnd] is derived from a dependency DAG fixed
//     synchronously at Launch time (program order within a Stream,
//     assignment order on a CoreGroup, explicit Event dependencies),
//     never from host scheduling. Running the same launch sequence
//     twice — or under a different GOMAXPROCS — yields identical
//     placements and identical simulated times.
//
// Streams serialize their own launches (CUDA-stream semantics); Events
// order launches across streams; Node.Sync is the device-wide join.
package swnode

import (
	"fmt"
	"sync"

	"swcaffe/internal/obs"
	"swcaffe/internal/sw26010"
)

// Unpinned selects scheduler placement instead of a fixed CoreGroup.
const Unpinned = -1

// Node owns the four pooled CoreGroups of one SW26010 and schedules
// kernel launches onto them.
type Node struct {
	Model *sw26010.Model

	cgs [sw26010.CoreGroups]*sw26010.CoreGroup
	des bool // no CoreGroups: LaunchFunc-only, run inline (no goroutines)

	mu       sync.Mutex
	load     [sw26010.CoreGroups]float64 // cumulative scheduling weight per CG
	lastOnCG [sw26010.CoreGroups]*Event  // tail of each CG's assignment chain
	launches int
	firstErr any
	closed   bool
	tracer   *obs.Tracer // nil = tracing disabled (the hot-path default)
	tracePid int         // trace track (rank) for this node's launch spans

	pending sync.WaitGroup
}

// NewNode builds a node of four CoreGroups around one hardware model
// (nil selects the calibrated default). The CoreGroups' CPE
// coroutines are created lazily by their first launch.
func NewNode(m *sw26010.Model) *Node {
	n := newNode(m, false)
	for i := range n.cgs {
		n.cgs[i] = sw26010.NewCoreGroup(n.Model)
	}
	return n
}

// NewDESNode builds a node for the discrete-event backend, with no
// CoreGroups behind it: launches go through Stream.LaunchFunc, run
// inline on the submitting goroutine and are charged the modeled
// seconds they return. Stream ordering, event dependencies, the
// deterministic 4-slot least-loaded scheduler and the modeled
// [SimStart, SimEnd] timeline all behave exactly as on a pooled node.
// Running inline is valid because DES launches are only submitted from
// one single-threaded driver, so every launch a new one depends on has
// already completed when it is placed — the DAG resolves in submission
// order, and a launch has resolved before it returns. A p = 4096 sweep
// therefore costs zero goroutines on the compute side too.
func NewDESNode(m *sw26010.Model) *Node { return newNode(m, true) }

func newNode(m *sw26010.Model, des bool) *Node {
	if m == nil {
		m = sw26010.Default()
	}
	return &Node{Model: m, des: des}
}

// DES reports whether this is a DES node (see NewDESNode).
func (n *Node) DES() bool { return n.des }

// NewStream returns a stream whose launches the scheduler places on
// the least-loaded CoreGroup (deterministically: cumulative assigned
// weight, ties broken by lowest index).
func (n *Node) NewStream() *Stream { return &Stream{node: n, pin: Unpinned} }

// PinnedStream returns a stream whose every launch runs on CoreGroup
// cg — the explicit placement Algorithm 1 uses for its four
// quarter-batch workers.
func (n *Node) PinnedStream(cg int) *Stream {
	if cg < 0 || cg >= sw26010.CoreGroups {
		panic(fmt.Sprintf("swnode: pin to CG %d out of range", cg))
	}
	return &Stream{node: n, pin: cg}
}

// leastLoaded picks the placement for an unpinned launch. Called with
// n.mu held; depends only on the sequence of prior Launch calls, so
// placement is reproducible.
func (n *Node) leastLoaded() int {
	best := 0
	for i := 1; i < sw26010.CoreGroups; i++ {
		if n.load[i] < n.load[best] {
			best = i
		}
	}
	return best
}

// SetTracer attaches an obs.Tracer to the node: every subsequent
// launch that completes without failing emits one span on (pid, CG)
// covering its modeled [SimStart, SimEnd] window. pid is the trace
// process track — a cluster passes the node's rank. A nil tracer
// detaches (the default), and detached launches pay only a nil check:
// the tracer pointer is copied into the Event under the launch locks,
// so enabling or disabling mid-run is race-free and affects only
// launches submitted afterwards. Tracing never touches the modeled
// clocks — spans are read from the DAG after the fact.
func (n *Node) SetTracer(tr *obs.Tracer, pid int) {
	n.mu.Lock()
	n.tracer = tr
	n.tracePid = pid
	n.mu.Unlock()
	if tr != nil {
		tr.NameProcess(pid, fmt.Sprintf("rank %d", pid))
		for cg := 0; cg < sw26010.CoreGroups; cg++ {
			tr.NameThread(pid, cg, fmt.Sprintf("CG%d", cg))
		}
	}
}

// Launches returns the number of launches submitted so far.
func (n *Node) Launches() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.launches
}

// Sync blocks until every submitted launch has completed. If any
// launch panicked, Sync re-raises the first panic (the node remains
// usable, as a CoreGroup does after a kernel panic).
func (n *Node) Sync() {
	if err := n.join(); err != nil {
		panic(err)
	}
}

// join waits for every submitted launch and returns, and clears, the
// first panic any of them recorded.
func (n *Node) join() any {
	n.pending.Wait()
	n.mu.Lock()
	defer n.mu.Unlock()
	err := n.firstErr
	n.firstErr = nil
	return err
}

// SimTime returns the node's modeled makespan: the latest SimEnd over
// all CoreGroup assignment chains. Call after Sync.
func (n *Node) SimTime() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var t float64
	for _, e := range n.lastOnCG {
		if e != nil && e.simEnd > t {
			t = e.simEnd
		}
	}
	return t
}

// Stats returns the summed simulated activity of all four CoreGroups
// (zero on a DES node, which runs no mesh kernels).
func (n *Node) Stats() sw26010.Stats {
	var agg sw26010.Stats
	for _, cg := range n.cgs {
		if cg == nil {
			continue
		}
		s := cg.Stats()
		agg.Add(&s)
	}
	return agg
}

// Close drains outstanding launches and ends the CoreGroups' CPE
// coroutines. The node must not be used afterwards. Close is idempotent —
// a node reached through both a direct handle and Cluster.Close (the
// shrink protocol closes a failed rank's node before the cluster
// winds down) drains exactly once. The closed flag is set before the
// drain so a racing Launch either lands fully before the drain or
// fails fast, never half-registers against a completed Wait.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.join()
	for _, cg := range n.cgs {
		if cg != nil {
			cg.Close()
		}
	}
}
