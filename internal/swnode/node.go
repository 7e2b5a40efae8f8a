// Package swnode models one full SW26010 node: the four core groups
// of the chip driven concurrently through an asynchronous stream/event
// API (paper Algorithm 1 and Fig. 5 run the four CGs as independent
// "threads" over quarter mini-batches; the multi-node pipeline of
// Sec. V-A overlaps gradient communication with their backward work).
//
// The design splits wall-clock concurrency from simulated time:
//
//   - Launches placed on different CoreGroups execute concurrently on
//     the host (a CoreGroup runs its launch on the goroutine that
//     calls it), so independent kernels overlap in real time.
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

	cgs    [sw26010.CoreGroups]*sw26010.CoreGroup
	des    bool   // no CoreGroups: LaunchFunc-only, run inline (no goroutines)
	stream Stream // the default stream

	mu       sync.Mutex
	load     [sw26010.CoreGroups]float64 // cumulative scheduling weight per CG
	lastOnCG [sw26010.CoreGroups]*Event  // tail of each CG's chain (pooled)
	cgEnd    [sw26010.CoreGroups]float64 // modeled end of each CG's chain
	launches int
	firstErr any
	closed   bool
	tracer   *obs.Tracer // nil = tracing disabled (the hot-path default)
	tracePid int         // trace track (rank) for this node's launch spans

	// A DES node's launch records, linked from rec0: next is the first
	// one unused since the last Sync, last the one before it.
	rec0       Event
	next, last *Event

	pending sync.WaitGroup
}

// NewNode builds a node of four CoreGroups around one hardware model
// (nil selects the calibrated default). The CoreGroups' CPEs are
// built lazily by their first launch.
func NewNode(m *sw26010.Model) *Node { return NewCluster(1, m).Node(0) }

// record returns a zeroed Event for a launch, called with n.mu held: on
// a DES node the next of its records (one more if all are in use since
// the last Sync), on a pooled node a new one.
func (n *Node) record() *Event {
	if !n.des {
		return new(Event)
	}
	if n.next == nil {
		n.next = new(Event)
		n.last.link = n.next
	}
	e := n.next
	n.next, n.last = e.link, e
	*e = Event{link: e.link}
	return e
}

// Stream returns the node's default stream, unpinned and built with it.
func (n *Node) Stream() *Stream { return &n.stream }

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

// leastLoaded places an unpinned launch, with n.mu held. It depends only
// on the sequence of prior Launch calls, so placement is reproducible.
func (n *Node) leastLoaded() int {
	best := 0
	for i := 1; i < sw26010.CoreGroups; i++ {
		if n.load[i] < n.load[best] {
			best = i
		}
	}
	return best
}

// SetTracer attaches an obs.Tracer to the node: every later launch
// that completes without failing emits one span on (pid, CG) covering
// its modeled [SimStart, SimEnd] window; pid is the trace process
// track (a cluster passes the node's rank). A nil tracer detaches (the
// default; launches then pay a nil check). Each launch copies the
// tracer under the launch locks, so switching mid-run is race-free.
// Tracing never touches the modeled clocks.
func (n *Node) SetTracer(tr *obs.Tracer, pid int) {
	n.mu.Lock()
	n.tracer, n.tracePid = tr, pid
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
	n.next, n.last = &n.rec0, nil
	return err
}

// SimTime returns the node's modeled makespan: the latest SimEnd over
// all CoreGroup assignment chains. Call after Sync.
func (n *Node) SimTime() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var t float64
	for _, end := range n.cgEnd {
		if end > t {
			t = end
		}
	}
	return t
}

// Stats returns the summed simulated activity of all four CoreGroups
// (zero on a DES node, which runs no mesh kernels).
func (n *Node) Stats() sw26010.Stats {
	var agg sw26010.Stats
	for _, cg := range n.cgs {
		if cg != nil {
			s := cg.Stats()
			agg.Add(&s)
		}
	}
	return agg
}

// Close drains outstanding launches and closes the CoreGroups; the
// node must not be used afterwards. Close is
// idempotent (the shrink protocol closes a failed rank's node before
// Cluster.Close does). The closed flag is set before the drain, so a
// racing Launch lands fully before it or fails fast.
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
