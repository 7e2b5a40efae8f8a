package swnode

import (
	"sync"
	"sync/atomic"

	"swcaffe/internal/obs"
	"swcaffe/internal/sw26010"
)

// Stream is an ordered launch queue on a Node: launches submitted to
// one stream execute (and are modeled) in submission order; launches
// on different streams are independent unless tied by Event
// dependencies. A launch that panics poisons the stream's later
// launches (they skip their kernels and re-raise from Wait) — after
// handling the failure, continue on a fresh stream.
type Stream struct {
	node *Node
	pin  int // CoreGroup index, or Unpinned

	mu    sync.Mutex
	tail  *Event
	label string // span name for traced launches (default "launch")
}

// SetLabel names the spans of launches submitted to this stream from
// now on (e.g. "fwd", "bwd", "pass"). Only read when the node has a
// tracer attached.
func (s *Stream) SetLabel(name string) {
	s.mu.Lock()
	s.label = name
	s.mu.Unlock()
}

// Event is the completion handle of one launch, and the launch itself:
// it runs the kernel or fn it was given, and resolves when that (and
// every launch it waits on) has finished.
type Event struct {
	node   *Node
	cg     int
	kernel func(cg *sw26010.CoreGroup) float64 // a CoreGroup launch, or
	fn     func() float64                      // a host launch (LaunchFunc)

	wg   sync.WaitGroup // released when the launch completes
	done atomic.Bool    // set just before wg is released

	// Written by the launch before it completes.
	simTime  float64 // the kernel's own simulated duration
	simStart float64 // modeled start: max SimEnd over the waited-on events
	simEnd   float64 // simStart + simTime
	err      any     // recovered kernel panic, re-raised by Wait/Sync

	// Tracing state, copied from the node under the launch locks so
	// run() needs no lock to read it. nil tracer = disabled.
	tracer   *obs.Tracer
	tracePid int
	label    string
}

// CGIndex reports which CoreGroup the launch was placed on (decided
// synchronously at Launch time).
func (e *Event) CGIndex() int { return e.cg }

// Wait blocks until the launch completes and returns the kernel's own
// simulated duration. If the kernel panicked, Wait re-raises the
// panic.
func (e *Event) Wait() float64 {
	e.wg.Wait()
	if e.err != nil {
		panic(e.err)
	}
	return e.simTime
}

// SimStart returns the modeled start time of the launch on the node
// timeline. Valid after Wait (or Node.Sync).
func (e *Event) SimStart() float64 { return e.simStart }

// SimEnd returns the modeled completion time of the launch on the
// node timeline. Valid after Wait (or Node.Sync).
func (e *Event) SimEnd() float64 { return e.simEnd }

// Launch submits kernel and returns its Event immediately. The kernel
// receives the CoreGroup it was placed on and returns its simulated
// duration (typically by calling cg.Run/RunN or a swdnn *Run entry
// point). It executes asynchronously once the stream's previous
// launch, the CoreGroup's previously assigned launch and every listed
// dependency have completed, so per-CG execution order equals
// assignment order and the modeled timeline is deterministic. On an
// unpinned stream the launch weighs 1 in the least-loaded scheduler
// (see LaunchFunc).
func (s *Stream) Launch(kernel func(cg *sw26010.CoreGroup) float64, deps ...*Event) *Event {
	if s.node.des {
		panic("swnode: CoreGroup launch on a DES node, which has no CoreGroups; use LaunchFunc")
	}
	return s.launch(1, &Event{kernel: kernel}, deps)
}

// LaunchFunc submits fn as a launch that runs on the host with no
// CoreGroup behind it: fn executes once the launch's ordering
// constraints resolve — on a launch goroutine, or inline on a DES node
// — and the launch is charged exactly the modeled seconds fn returns.
// This is the only launch a DES node accepts, and it also works on
// pooled nodes (for work that needs scheduling and a timeline but no
// simulated mesh).
//
// weight biases the least-loaded scheduler for unpinned streams (e.g.
// a modeled cost estimate of the work); placement uses cumulative
// assigned weight only, never completion times, so it is reproducible.
func (s *Stream) LaunchFunc(weight float64, fn func() float64, deps ...*Event) *Event {
	return s.launch(weight, &Event{fn: fn}, deps)
}

// launch places e, which holds only what it runs, and starts it.
func (s *Stream) launch(weight float64, e *Event, deps []*Event) *Event {
	n := s.node
	e.node = n
	e.wg.Add(1)

	// The stream lock spans placement so that concurrent Launch calls
	// on one stream serialize and the stream/CG chains stay consistent.
	s.mu.Lock()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		s.mu.Unlock()
		panic("swnode: Launch on a closed Node")
	}
	e.cg = s.pin
	if e.cg == Unpinned {
		e.cg = n.leastLoaded()
	}
	n.load[e.cg] += weight
	n.launches++
	if n.tracer != nil {
		e.tracer, e.tracePid, e.label = n.tracer, n.tracePid, s.label
		if e.label == "" {
			e.label = "launch"
		}
	}
	cgPrev := n.lastOnCG[e.cg]
	n.lastOnCG[e.cg] = e
	n.pending.Add(1)
	n.mu.Unlock()
	tail := s.tail
	s.tail = e
	s.mu.Unlock()

	if n.des {
		// DES node: everything this launch could wait on already ran
		// inline (single-threaded submission), so the DAG resolves here
		// and now — run synchronously, spawn nothing.
		e.run(cgPrev, tail, deps)
	} else {
		go e.run(cgPrev, tail, deps)
	}
	return e
}

// Poisoned reports whether the stream's most recent launch failed —
// panicked, or inherited a predecessor's panic — which poisons every
// later launch submitted to this stream. Callers that recover from a
// launch failure and want to keep the node should check this on the
// quiescent stream and continue on a fresh one (a launch still in
// flight reports false). Cf. the Stream doc: "after handling the
// failure, continue on a fresh stream".
func (s *Stream) Poisoned() bool {
	s.mu.Lock()
	tail := s.tail
	s.mu.Unlock()
	return tail != nil && tail.done.Load() && tail.err != nil
}

// run executes the launch once its ordering constraints resolve.
// cgPrev is the launch previously assigned to the same CoreGroup: it
// orders execution and the modeled timeline but does not propagate
// failure (unrelated streams sharing a CG must not poison each other).
// The stream predecessor tail and the explicit deps are data
// dependencies (see after).
func (e *Event) run(cgPrev, tail *Event, deps []*Event) {
	defer e.node.pending.Done()
	defer e.wg.Done()
	defer e.done.Store(true)
	var start float64
	if cgPrev != nil {
		cgPrev.wg.Wait()
		start = cgPrev.simEnd
	}
	if tail != nil {
		start = e.after(tail, start)
	}
	for _, d := range deps {
		start = e.after(d, start)
	}
	e.simStart = start
	e.simEnd = start
	if e.err != nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			e.err = r
			e.node.mu.Lock()
			if e.node.firstErr == nil {
				e.node.firstErr = r
			}
			e.node.mu.Unlock()
		}
	}()
	var t float64
	if e.fn != nil {
		t = e.fn()
	} else {
		t = e.kernel(e.node.cgs[e.cg])
	}
	e.simTime = t
	e.simEnd = start + t
	if e.tracer != nil {
		e.tracer.Span(e.tracePid, e.cg, e.label, e.simStart, e.simEnd)
	}
}

// after waits for w, a data dependency of e, and returns start moved
// past w's modeled end. A failed w poisons e: e skips its kernel and
// re-raises the root panic value from Wait.
func (e *Event) after(w *Event, start float64) float64 {
	w.wg.Wait()
	if w.err != nil && e.err == nil {
		e.err = w.err
	}
	if w.simEnd > start {
		return w.simEnd
	}
	return start
}
