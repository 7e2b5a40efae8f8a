// Package des is the single-threaded discrete-event backend of the
// cluster simulator: per-rank clocks priced by topology.Fabric, as in
// internal/simnet, but ranks run as callback continuations on one
// ready queue instead of one goroutine each — zero goroutines, channel
// rendezvous and OS scheduling, which makes paper-scale functional
// sweeps (p = 1024/4096) feasible in CI.
//
// Order is free. The collective bodies form a Kahn process network over
// per-(src,dst) FIFO links (blocking receives, data-independent control
// flow): a rank's clock and floats depend only on its own program order
// and on the (length, send time) of what it takes off each link in FIFO
// order, which no host order of continuations can change. So the engine
// keeps no time order: a matched receive's continuation joins a FIFO
// ring, stamped with its arrival time. The goroutine backend stays the
// bit-identity oracle at small p, and this backend must match it
// hex-exactly.
//
// The engine moves payloads by reference and never reads one: it
// prices and matches by length. So the collectives it runs land no
// float while it runs — internal/allreduce logs each landing and
// replays the log in tiles once the run is done (allreduce.DESRun) —
// and a run is pure event matching, its memory traffic the engine's
// own.
//
// Execution model: a rank's program runs inline until it needs a
// message; Recv/SendRecv take an explicit continuation and park the
// rank. Ranks run one at a time, so a rank holds at most one parked
// receive (a second is a panic); a wire nobody waits for yet joins its
// receiver's chain. A match only enqueues, never calls, so the stack
// unwinds between hops and depth stays bounded by the rank's own
// comm-free code.
package des

import (
	"fmt"
	"slices"
	"sync"

	"swcaffe/internal/scratch"
	"swcaffe/internal/topology"
)

// Cluster couples a pricer (network, rank mapping, cluster size and
// the settable BytesPerElem and ReduceOnCPE) with the reusable state of
// discrete-event collective runs.
type Cluster struct {
	topology.Fabric

	// pool holds the runState of the last run that completed cleanly
	// and fully drained — the rule simnet.Cluster follows. A run that
	// panicked, deadlocked or left a wire or a waiter behind never
	// returns its state here: it is dropped whole, so nothing stale
	// (a queued wire, a parked continuation, scratch a dead rank still
	// references) can reach a later run.
	mu   sync.Mutex
	pool *runState
}

// NewCluster builds a DES cluster of p nodes.
func NewCluster(net *topology.Network, mapping topology.Mapping, p int) *Cluster {
	if p <= 0 {
		panic("des: cluster size must be positive")
	}
	return &Cluster{Fabric: topology.NewFabric(net, mapping, p)}
}

// wire is one queued message, a slot in runState.wires chained by
// index: next is the following wire queued for the same receiver, or
// the following free slot once the wire is delivered.
type wire struct {
	data     []float32
	sendTime float64
	src      int32
	next     int32
}

// inbox is the chain of wires queued for one receiver, in post order
// (head < 0 = empty). Its first wire from src is the head of the
// (src, dst) FIFO.
type inbox struct{ head, tail int32 }

// waiter is the receive a rank is parked on (k == nil = none).
// sendElems is a SendRecv's outgoing payload size (-1 for a Recv): the
// full-duplex exchange charges one α+βn for the larger direction, so
// the cost is resolved only when the incoming wire is known.
type waiter struct {
	src       int
	sendElems int
	k         func([]float32)
}

// event is one ready resumption: set rank's clock to time and call
// k(data). It carries no closure: a match allocates nothing.
type event struct {
	time float64
	rank int
	k    func([]float32)
	data []float32
}

// ready is the FIFO ring of resumptions: a power-of-two buffer that
// grows by doubling.
type ready struct {
	buf     []event
	head, n int
}

func (q *ready) push(e event) {
	if q.n == len(q.buf) {
		buf := make([]event, max(16, 2*len(q.buf)))
		copy(buf[copy(buf, q.buf[q.head:]):], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = e
	q.n++
}

func (q *ready) pop() event {
	e := q.buf[q.head]
	q.buf[q.head] = event{} // release the continuation and payload
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return e
}

// runState is the state of one RunGather, reused by the next when the
// run ends clean (see Cluster.pool), which leaves every chain empty and
// every rank unparked: neither needs a reset. The census counters are
// plain ints — the whole run is one goroutine.
type runState struct {
	cluster *Cluster
	ranks   []Rank
	clocks  []float64
	results [][]float32
	scratch []scratch.Arena

	waits    []waiter // waits[dst]: the receive dst is parked on
	inbox    []inbox  // inbox[dst]: the wires queued for dst
	wires    []wire
	freeWire int32 // head of the free-wire chain, -1 = none

	ready    ready
	cur      int // world rank whose code is running, for RankPanic
	finished int
	parked   int // receives parked and not yet matched

	msgs       int64 // wires posted
	delivered  int64 // wires matched to a receive
	crossMsgs  int64
	crossBytes int64
}

func newRunState(c *Cluster) *runState {
	rs := &runState{
		cluster: c,
		ranks:   make([]Rank, c.P),
		clocks:  make([]float64, c.P),
		results: make([][]float32, c.P),
		scratch: make([]scratch.Arena, c.P),
		waits:   make([]waiter, c.P),
		inbox:   make([]inbox, c.P),
	}
	for i := range rs.inbox {
		rs.inbox[i] = inbox{head: -1, tail: -1}
	}
	return rs
}

// begin readies a fresh or recycled state for a run: only the per-run
// counters, the clocks and the scratch cursors move (see runState).
func (rs *runState) begin() {
	for i := range rs.ranks {
		rs.clocks[i] = 0
		rs.results[i] = nil
		rs.scratch[i].Rewind()
		rs.ranks[i] = Rank{Rank: i, cluster: rs.cluster, run: rs, clock: &rs.clocks[i]}
	}
	rs.freeWire = -1
	rs.wires = rs.wires[:0]
	rs.finished = 0
	rs.msgs, rs.delivered, rs.crossMsgs, rs.crossBytes = 0, 0, 0, 0
}

// post sends data from src to dst and counts it. A receive dst has
// parked on src takes the payload at once — that link is empty, or the
// receive would have matched when it parked; otherwise the wire joins
// dst's chain.
func (rs *runState) post(src, dst int, data []float32, now float64) {
	rs.msgs++
	if cross, bytes := rs.cluster.Cross(src, dst, len(data)); cross {
		rs.crossMsgs++
		rs.crossBytes += bytes
	}
	if w := &rs.waits[dst]; w.k != nil && w.src == src {
		rs.deliver(src, dst, data, now)
		return
	}
	wi := rs.freeWire
	if wi < 0 {
		wi = int32(len(rs.wires))
		rs.wires = append(rs.wires, wire{})
	} else {
		rs.freeWire = rs.wires[wi].next
	}
	rs.wires[wi] = wire{data: data, sendTime: now, src: int32(src), next: -1}
	box := &rs.inbox[dst]
	if box.head < 0 {
		box.head = wi
	} else {
		rs.wires[box.tail].next = wi
	}
	box.tail = wi
}

// park parks dst's receive from src and matches it against the first
// wire from src in dst's chain, if there is one.
func (rs *runState) park(src, dst, sendElems int, k func([]float32)) {
	if w := &rs.waits[dst]; w.k != nil {
		panic(fmt.Sprintf("des: second receiver parked on link [%d %d] while rank %d waits on [%d %d]",
			src, dst, dst, w.src, dst))
	}
	rs.waits[dst] = waiter{src: src, sendElems: sendElems, k: k}
	rs.parked++
	box := &rs.inbox[dst]
	for prev, wi := int32(-1), box.head; wi >= 0; prev, wi = wi, rs.wires[wi].next {
		m := rs.wires[wi]
		if int(m.src) != src {
			continue
		}
		if prev < 0 {
			box.head = m.next
		} else {
			rs.wires[prev].next = m.next
		}
		if box.tail == wi {
			box.tail = prev
		}
		rs.wires[wi] = wire{next: rs.freeWire}
		rs.freeWire = wi
		rs.deliver(src, dst, m.data, m.sendTime)
		return
	}
}

// deliver resolves dst's parked receive with a payload src sent at
// sendTime and queues the continuation at the arrival time. It never
// calls the continuation, so the stack unwinds between hops.
func (rs *runState) deliver(src, dst int, data []float32, sendTime float64) {
	w := rs.waits[dst]
	rs.waits[dst] = waiter{}
	rs.parked--
	rs.delivered++
	t := rs.cluster.Arrive(src, dst, max(len(data), w.sendElems), rs.clocks[dst], sendTime)
	rs.ready.push(event{time: t, rank: dst, k: w.k, data: data})
}

// Rank is the per-rank handle passed to DES collective bodies — the
// counterpart of simnet.Node, with receives that take a continuation.
// Peers are always cluster ranks. A handle belongs to the run that made
// it and must not be used after that run returns.
type Rank struct {
	Rank    int
	cluster *Cluster
	run     *runState
	clock   *float64
	done    bool
}

// Clock returns the rank's logical time in seconds.
func (r *Rank) Clock() float64 { return *r.clock }

// P returns the cluster size.
func (r *Rank) P() int { return r.cluster.P }

// Supernodes returns the cluster's supernode layout, resolved once at
// NewCluster.
func (r *Rank) Supernodes() *topology.Layout { return r.cluster.Supernodes() }

// Scratch returns n float32s of unspecified content from the rank's
// cluster-owned bump arena — a one-shot collective's result vector, or
// working memory for a payload the body builds and sends. The arena is rewound
// when the cluster's next run starts and never within one, so the
// slice stays valid until then: for this rank, for a peer it was sent
// to, and for the caller of RunGather when the rank finishes with it.
// A failed run's arenas are dropped with its state.
func (r *Rank) Scratch(n int) []float32 {
	return r.run.scratch[r.Rank].Take(n)
}

// Send posts data to peer and occupies the sender for the full α+βn,
// exactly as simnet.Node.Send. It never parks: control returns to the
// caller inline. The payload travels by reference — see the ownership
// rule in internal/allreduce.
func (r *Rank) Send(peer int, data []float32) {
	src, dst := r.Rank, peer
	if uint(dst) >= uint(r.cluster.P) {
		panic(r.badPeer("send to", dst))
	}
	if dst == src {
		panic("des: send to self")
	}
	r.run.post(src, dst, data, *r.clock)
	*r.clock = r.cluster.Send(src, dst, len(data), *r.clock)
}

// Recv parks the rank until a message from peer arrives, then resumes
// k with the payload; the clock advances to
// max(local, remote-send) + α + βn first, as simnet.Node.Recv. Code
// after a Recv call runs before the continuation — structure rank
// programs so Recv is a tail call. The engine keeps k only until it
// fires, so one continuation may serve every round of a phase.
func (r *Rank) Recv(peer int, k func([]float32)) {
	if uint(peer) >= uint(r.cluster.P) {
		panic(r.badPeer("receive from", peer))
	}
	r.run.park(peer, r.Rank, -1, k)
}

// SendRecv posts sendData to peer and parks for the reply; the
// full-duplex pair charges one α+βn for the larger direction, as
// simnet.Node.SendRecv. k receives the peer's payload.
func (r *Rank) SendRecv(peer int, sendData []float32, k func([]float32)) {
	src, dst := r.Rank, peer
	if uint(dst) >= uint(r.cluster.P) {
		panic(r.badPeer("sendrecv with", dst))
	}
	if dst == src {
		panic("des: sendrecv with self")
	}
	r.run.post(src, dst, sendData, *r.clock)
	r.run.park(dst, src, len(sendData), k)
}

// badPeer is the panic message for a peer outside [0, P).
func (r *Rank) badPeer(op string, peer int) string {
	return fmt.Sprintf("des: rank %d: %s peer %d outside [0, %d)", r.Rank, op, peer, r.cluster.P)
}

// ChargeReduce accounts a local elementwise reduction of elems values,
// as simnet.Node.ChargeReduce.
func (r *Rank) ChargeReduce(elems int) { *r.clock = r.cluster.Reduce(elems, *r.clock) }

// Finish records the rank's result and marks its program complete.
// Every rank body must call it exactly once, as its final act (the DES
// analogue of returning from a RunGather body).
func (r *Rank) Finish(out []float32) {
	if r.done {
		panic(fmt.Sprintf("des: rank %d finished twice", r.Rank))
	}
	r.done = true
	r.run.results[r.Rank] = out
	r.run.finished++
}

// RankPanic is the panic value RunGather re-raises when a rank's body
// panics, mirroring simnet.NodePanic: the original value plus the
// world rank it died on, with the FailedRank method the elastic layer
// matches on.
type RankPanic struct {
	Rank  int
	Value any
}

func (p RankPanic) Error() string {
	return fmt.Sprintf("des: rank panic on rank %d: %v", p.Rank, p.Value)
}

func (p RankPanic) String() string { return p.Error() }

// FailedRank returns the world rank whose body panicked.
func (p RankPanic) FailedRank() int { return p.Rank }

// Unwrap exposes the original panic when it was itself an error.
func (p RankPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Run executes body on every rank and returns the makespan; the DES
// analogue of simnet.Cluster.Run for bodies without a gathered result
// (bodies still call Finish, with nil). The returned Clocks are valid
// until the next run, as RunGather's are.
func (c *Cluster) Run(body func(r *Rank)) topology.Result {
	res, _ := c.RunGather(body)
	return res
}

// RunGather executes body on every rank of a clean run (zeroed clocks,
// empty links, rewound scratch) and drains the ready queue to
// completion. The body runs rank code inline until the first park; each
// rank must eventually call Finish with its result. What is returned
// follows simnet.Cluster.RunGather's contract: the Result's Clocks, the
// slice, and the vectors in it that came from Scratch, are owned by the
// cluster and valid only until its next Run/RunGather.
//
// A panic in rank code propagates as RankPanic, and a deadlock or an
// unconsumed message as a plain panic; in each case the run state is
// dropped, never reused, so the cluster is reusable afterwards, and
// nothing of the failed run is left running.
func (c *Cluster) RunGather(body func(r *Rank)) (topology.Result, [][]float32) {
	c.mu.Lock()
	rs := c.pool
	c.pool = nil
	c.mu.Unlock()
	if rs == nil {
		rs = newRunState(c)
	}
	rs.begin()
	rs.execute(body)
	if rs.finished != c.P {
		panic(fmt.Sprintf("des: deadlock — %d of %d ranks finished, parked waiters on links %v",
			rs.finished, c.P, rs.parkedLinks()))
	}
	// A completed collective must have consumed every message it sent.
	// The counters decide that; the sorted scan only names the link.
	if rs.delivered != rs.msgs {
		panic(fmt.Sprintf("des: unconsumed message on link %v", rs.queuedLinks()[0]))
	}
	res := topology.NewResult(rs.clocks, rs.msgs, rs.crossMsgs, rs.crossBytes)
	// A waiter still parked (a receive nothing was ever sent to, on a
	// rank that finished anyway) is legal but would resume in a later
	// run, so such a state is not recycled either.
	if rs.parked == 0 {
		c.mu.Lock()
		c.pool = rs
		c.mu.Unlock()
	}
	return res, rs.results
}

// execute seeds every rank's body and drains the ready queue. One deferred
// recover covers the lot: cur names the rank whose code is running.
func (rs *runState) execute(body func(r *Rank)) {
	defer rs.rewrap()
	for i := range rs.ranks {
		rs.cur = i
		body(&rs.ranks[i])
	}
	for rs.ready.n > 0 {
		ev := rs.ready.pop()
		rs.cur = ev.rank
		rs.clocks[ev.rank] = ev.time
		ev.k(ev.data)
	}
}

// rewrap converts a rank-code panic into RankPanic, preserving a value
// that is already one.
func (rs *runState) rewrap() {
	if rec := recover(); rec != nil {
		if rp, ok := rec.(RankPanic); ok {
			panic(rp)
		}
		panic(RankPanic{Rank: rs.cur, Value: rec})
	}
}

// parkedLinks and queuedLinks list the (src, dst) links a receive is
// parked on and those holding a wire, sorted, for the deadlock and
// unconsumed-message diagnostics.
func (rs *runState) parkedLinks() (out [][2]int) {
	for dst, w := range rs.waits {
		if w.k != nil {
			out = append(out, [2]int{w.src, dst})
		}
	}
	return sorted(out)
}

func (rs *runState) queuedLinks() (out [][2]int) {
	for dst, box := range rs.inbox {
		for wi := box.head; wi >= 0; wi = rs.wires[wi].next {
			out = append(out, [2]int{int(rs.wires[wi].src), dst})
		}
	}
	return sorted(out)
}

func sorted(links [][2]int) [][2]int {
	slices.SortFunc(links, func(a, b [2]int) int { return slices.Compare(a[:], b[:]) })
	return links
}
