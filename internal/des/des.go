// Package des is the single-threaded discrete-event backend of the
// cluster simulator: per-rank clocks priced by topology.Fabric, as in
// internal/simnet, but ranks run as callback continuations on
// one binary-heap event queue instead of one goroutine each. A p=4096
// collective costs zero goroutines, zero channel rendezvous and zero
// OS scheduling — the refactor that makes paper-scale functional
// sweeps (p = 1024/4096) feasible in CI.
//
// Determinism: events are keyed by (simTime, rank, seq) with seq
// a per-run monotonic counter, so ties on the simulated clock break
// identically on every run and under every GOMAXPROCS. Because the
// collective bodies form a Kahn process network over per-(src,dst)
// FIFO links (blocking receives, data-independent control flow), any
// schedule yields the same floats and clocks — the goroutine backend
// stays the bit-identity oracle at small p, and this backend must
// match it hex-exactly.
//
// Execution model: a rank's program runs inline until it needs a
// message; Recv/SendRecv take an explicit continuation and park the
// rank on the link. Matching a parked waiter with a queued wire always
// goes through the event heap — never by direct call — so the stack
// fully unwinds between hops and depth stays bounded by the rank's own
// comm-free code. At most one waiter can be parked per link (each link
// has a single fixed receiver and ranks are sequential); two parked
// waiters on one link is a scheduler invariant violation worth a
// panic.
package des

import (
	"fmt"
	"sort"
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

// wire is one queued message. Wires live in runState.wires and are
// chained by index: next is the following wire on the same link, or
// the following free slot once the wire is delivered.
type wire struct {
	data     []float32
	sendTime float64
	next     int32
}

// waiter is the receiver parked on a link (always the link's dst).
// sendElems is the outgoing payload size of a SendRecv (-1 for a plain
// Recv): the full-duplex exchange charges one α+βn for the larger
// direction, so the cost is resolved only when the incoming wire is
// known.
type waiter struct {
	sendElems int
	k         func([]float32)
}

// link is one directed (src, dst) FIFO: a chain of wires from head to
// tail (head < 0 = empty) and at most one parked waiter, held by value
// (w.k == nil = none).
type link struct {
	key        uint64 // src<<32 | dst
	head, tail int32
	w          waiter
}

func (l *link) parked() bool { return l.w.k != nil }

func (l *link) ends() [2]int { return [2]int{int(l.key >> 32), int(uint32(l.key))} }

// event is one scheduled resumption: at time, set rank's clock and call
// k(data). It carries no closure — matching a message allocates
// nothing.
type event struct {
	time float64
	rank int
	seq  int64
	k    func([]float32)
	data []float32
}

// eventHeap is a hand-rolled binary min-heap over (time, rank, seq).
type eventHeap []event

func (h eventHeap) before(i, j int) bool {
	a, b := &h[i], &h[j]
	if a.time != b.time {
		return a.time < b.time
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).before(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{} // release the continuation and payload
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h).before(l, smallest) {
			smallest = l
		}
		if r < n && (*h).before(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// runState is the state of one RunGather, reused by the next when the
// run ends clean (see Cluster.pool): ranks, clocks, links, wires, the
// event heap, per-rank scratch and the traffic census (plain ints — the
// whole run is one goroutine). Links are found through an
// open-addressing table over their (src, dst) key; a warm run on the
// same schedule finds every link it needs and every wire slot free.
type runState struct {
	cluster *Cluster
	ranks   []Rank
	clocks  []float64
	results [][]float32
	scratch []scratch.Arena

	links    []link
	slots    []int32 // open addressing: index into links + 1, 0 = empty
	wires    []wire
	freeWire int32 // head of the free-wire chain, -1 = none

	heap     eventHeap
	seq      int64
	cur      int // world rank whose code is running, for RankPanic
	finished int
	parked   int // waiters parked and not yet matched

	msgs       int64 // wires posted
	delivered  int64 // wires matched to a waiter
	crossMsgs  int64
	crossBytes int64
}

func newRunState(c *Cluster) *runState {
	slots := 16
	for slots < 4*c.P {
		slots *= 2
	}
	return &runState{
		cluster: c,
		ranks:   make([]Rank, c.P),
		clocks:  make([]float64, c.P),
		results: make([][]float32, c.P),
		scratch: make([]scratch.Arena, c.P),
		slots:   make([]int32, slots),
	}
}

// begin readies a fresh or recycled state for a run. A recycled state
// comes from a drained run, so its links are empty and its heap is too;
// only the per-run counters, the clocks and the scratch cursors move.
func (rs *runState) begin() {
	for i := range rs.ranks {
		rs.clocks[i] = 0
		rs.results[i] = nil
		rs.scratch[i].Rewind()
		rs.ranks[i] = Rank{Rank: i, cluster: rs.cluster, run: rs, clock: &rs.clocks[i]}
	}
	rs.freeWire = -1
	rs.wires = rs.wires[:0]
	rs.seq, rs.finished = 0, 0
	rs.msgs, rs.delivered, rs.crossMsgs, rs.crossBytes = 0, 0, 0, 0
}

func slotOf(key uint64, mask int) int {
	return int((key*0x9E3779B97F4A7C15)>>32) & mask
}

// link returns the (src, dst) link, creating it on first use. The
// pointer is valid until the next call (creation may move the table).
func (rs *runState) link(src, dst int) *link {
	key := uint64(src)<<32 | uint64(dst)
	mask := len(rs.slots) - 1
	i := slotOf(key, mask)
	for rs.slots[i] != 0 {
		if l := &rs.links[rs.slots[i]-1]; l.key == key {
			return l
		}
		i = (i + 1) & mask
	}
	rs.links = append(rs.links, link{key: key, head: -1, tail: -1})
	rs.slots[i] = int32(len(rs.links))
	if 2*len(rs.links) > len(rs.slots) {
		rs.slots = make([]int32, 2*len(rs.slots))
		mask = len(rs.slots) - 1
		for li := range rs.links {
			j := slotOf(rs.links[li].key, mask)
			for rs.slots[j] != 0 {
				j = (j + 1) & mask
			}
			rs.slots[j] = int32(li + 1)
		}
	}
	return &rs.links[len(rs.links)-1]
}

// post queues data on the (src, dst) link, counts it, and resolves a
// waiter already parked there.
func (rs *runState) post(src, dst int, data []float32, now float64) {
	rs.msgs++
	if cross, bytes := rs.cluster.Cross(src, dst, len(data)); cross {
		rs.crossMsgs++
		rs.crossBytes += bytes
	}
	wi := rs.freeWire
	if wi >= 0 {
		rs.freeWire = rs.wires[wi].next
		rs.wires[wi] = wire{data: data, sendTime: now, next: -1}
	} else {
		wi = int32(len(rs.wires))
		rs.wires = append(rs.wires, wire{data: data, sendTime: now, next: -1})
	}
	l := rs.link(src, dst)
	if l.head < 0 {
		l.head = wi
	} else {
		rs.wires[l.tail].next = wi
	}
	l.tail = wi
	if l.parked() {
		rs.match(l, src, dst)
	}
}

// match resolves the link's parked waiter against its head wire and
// schedules the continuation on the heap at the arrival time.
func (rs *runState) match(l *link, src, dst int) {
	w := l.w
	l.w = waiter{}
	rs.parked--
	wi := l.head
	m := rs.wires[wi]
	l.head = m.next
	rs.wires[wi] = wire{next: rs.freeWire}
	rs.freeWire = wi
	rs.delivered++
	t := rs.cluster.Arrive(src, dst, max(len(m.data), w.sendElems), rs.clocks[dst], m.sendTime)
	rs.heap.push(event{time: t, rank: dst, seq: rs.seq, k: w.k, data: m.data})
	rs.seq++
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

// AdvanceClock adds local computation time.
func (r *Rank) AdvanceClock(dt float64) { *r.clock += dt }

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
	r.run.park(peer, r.Rank, -1, k)
}

// SendRecv posts sendData to peer and parks for the reply; the
// full-duplex pair charges one α+βn for the larger direction, as
// simnet.Node.SendRecv. k receives the peer's payload.
func (r *Rank) SendRecv(peer int, sendData []float32, k func([]float32)) {
	src, dst := r.Rank, peer
	if dst == src {
		panic("des: sendrecv with self")
	}
	r.run.post(src, dst, sendData, *r.clock)
	r.run.park(dst, src, len(sendData), k)
}

func (rs *runState) park(src, dst, sendElems int, k func([]float32)) {
	l := rs.link(src, dst)
	if l.parked() {
		panic(fmt.Sprintf("des: second receiver parked on link [%d %d]", src, dst))
	}
	l.w = waiter{sendElems: sendElems, k: k}
	rs.parked++
	if l.head >= 0 {
		rs.match(l, src, dst)
	}
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
// (bodies still call Finish, with nil).
func (c *Cluster) Run(body func(r *Rank)) topology.Result {
	res, _ := c.RunGather(body)
	return res
}

// RunGather executes body on every rank of a clean run (zeroed clocks,
// empty links, rewound scratch) and drains the event heap to
// completion. The body runs rank code inline until the first park; each
// rank must eventually call Finish with its result. What is returned
// follows simnet.Cluster.RunGather's contract: the slice, and the
// vectors in it that came from Scratch, are owned by the cluster and
// valid only until its next Run/RunGather.
//
// A panic in rank code propagates as RankPanic, and a deadlock or an
// unconsumed message as a plain panic; in each case the run state is
// dropped, never reused, so the cluster is reusable afterwards — and
// unlike the goroutine backend, a failed run strands nothing: there are
// no goroutines to leak.
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
			rs.finished, c.P, rs.linksWhere((*link).parked)))
	}
	// A completed collective must have consumed every message it sent.
	// The counters decide that; the sorted scan only names the link.
	if rs.delivered != rs.msgs {
		panic(fmt.Sprintf("des: unconsumed message on link %v",
			rs.linksWhere(func(l *link) bool { return l.head >= 0 })[0]))
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

// execute seeds every rank's body and drains the heap. One deferred
// recover covers the lot: cur names the rank whose code is running.
func (rs *runState) execute(body func(r *Rank)) {
	defer rs.rewrap()
	for i := range rs.ranks {
		rs.cur = i
		body(&rs.ranks[i])
	}
	for len(rs.heap) > 0 {
		ev := rs.heap.pop()
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

// linksWhere lists the (src, dst) ends of the links keep selects,
// sorted, for the deadlock and unconsumed-message diagnostics.
func (rs *runState) linksWhere(keep func(*link) bool) [][2]int {
	var out [][2]int
	for i := range rs.links {
		if l := &rs.links[i]; keep(l) {
			out = append(out, l.ends())
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
