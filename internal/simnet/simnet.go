// Package simnet is a discrete-event message-passing simulator for
// clusters: each node runs its part of a collective algorithm as a
// goroutine with a logical clock, and every transfer and reduction is
// priced by topology.Fabric. It plays the role MPI plays in swCaffe:
// the collective algorithms in internal/allreduce run unmodified on top
// of it.
//
// Payloads are real float32 slices, so the same runs validate
// numerical correctness; for large-scale timing studies BytesPerElem
// can inflate the virtual wire size so that a short vector stands in
// for a multi-hundred-megabyte gradient without allocating it.
package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"swcaffe/internal/scratch"
	"swcaffe/internal/topology"
)

// Cluster couples a pricer (network, rank mapping, cluster size and
// the settable BytesPerElem and ReduceOnCPE) with the per-node state
// for one collective run.
type Cluster struct {
	topology.Fabric

	// pool holds the runState of the last cleanly-completed Run for
	// reuse (its channels are provably drained and nothing references
	// them). A failed Run never returns its state here, so the hot
	// path stays allocation-light without weakening failure isolation.
	mu   sync.Mutex
	pool *runState
}

type wire struct {
	data     []float32
	sendTime float64
}

// runState is the message-passing state of one Run. A Run only ever
// starts on a state no failed Run has touched (fresh, or recycled
// from a Run that completed cleanly with all channels drained), so
// wires buffered — or goroutines still blocked in Send/Recv — when a
// rank panicked can never leak into, and silently corrupt, a later
// Run on the same cluster.
type runState struct {
	mu    sync.Mutex
	inbox map[[2]int]chan wire // (src, dst) -> channel

	// results holds RunGather's per-rank return values. It lives and
	// dies with the run state for the same reason the channels do: a
	// rank goroutine stranded by a peer's panic may still finish its
	// algorithm and store its result arbitrarily late, and that late
	// write must land in the abandoned run's private storage, never in
	// a later call's.
	results [][]float32

	// nodes, clocks and scratch are the per-rank handles, logical clocks
	// and bump arenas (see Node.Scratch). They are private to the run
	// for the reason results is: a stranded rank keeps using them.
	nodes   []Node
	clocks  []float64
	scratch []scratch.Arena

	// msgs and crossMsgs count the point-to-point messages of the run
	// and the subset whose endpoints sit in different supernodes;
	// crossBytes sums those messages' virtual wire sizes — the
	// topology pressure a collective schedule puts on the
	// over-subscribed central switch (reported on Result).
	msgs       atomic.Int64
	crossMsgs  atomic.Int64
	crossBytes atomic.Int64
}

func (rs *runState) channel(src, dst int) chan wire {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	key := [2]int{src, dst}
	ch, ok := rs.inbox[key]
	if !ok {
		ch = make(chan wire, 8)
		rs.inbox[key] = ch
	}
	return ch
}

// NewCluster builds a cluster of p nodes.
func NewCluster(net *topology.Network, mapping topology.Mapping, p int) *Cluster {
	if p <= 0 {
		panic("simnet: cluster size must be positive")
	}
	return &Cluster{Fabric: topology.NewFabric(net, mapping, p)}
}

// Node is the per-rank handle passed to collective algorithm bodies:
// the rank's number in the cluster, its logical clock, and the run's
// message channels. Peers are always cluster ranks — a collective over
// a subset of the ranks (the hierarchical schedule's leader phase)
// names its peers by cluster rank like any other.
type Node struct {
	Rank    int
	cluster *Cluster
	run     *runState
	clock   *float64
}

// Clock returns the node's logical time in seconds.
func (n *Node) Clock() float64 { return *n.clock }

// P returns the cluster size.
func (n *Node) P() int { return n.cluster.P }

// Supernodes returns the cluster's supernode layout, resolved once at
// NewCluster.
func (n *Node) Supernodes() *topology.Layout { return n.cluster.Supernodes() }

// Scratch returns k float32s of unspecified content from the rank's
// cluster-owned bump arena — a one-shot collective's result vector, or
// working memory for a payload the body builds and sends. The arena is rewound
// when the cluster's next run starts and never within one, so the
// slice stays valid until then: for this rank, for a peer it was sent
// to, and for the caller of RunGather when the body returns it as the
// rank's result. A failed run's arenas are abandoned with the rest of
// its state, so a stranded rank can keep using its own.
func (n *Node) Scratch(k int) []float32 {
	return n.run.scratch[n.Rank].Take(k)
}

// countMsg records one posted message of elems payload elements for
// the run's traffic census.
func (n *Node) countMsg(src, dst, elems int) {
	n.run.msgs.Add(1)
	if cross, bytes := n.cluster.Cross(src, dst, elems); cross {
		n.run.crossMsgs.Add(1)
		n.run.crossBytes.Add(bytes)
	}
}

// Send posts data to peer. The send occupies the sender for the full
// α+βn (blocking send, as the MPI_Send the paper's collectives use).
// The payload travels by reference — see the ownership rule in
// internal/allreduce.
func (n *Node) Send(peer int, data []float32) {
	src, dst := n.Rank, peer
	if uint(dst) >= uint(n.cluster.P) {
		panic(n.badPeer("send to", dst))
	}
	if dst == src {
		panic("simnet: send to self")
	}
	n.countMsg(src, dst, len(data))
	n.run.channel(src, dst) <- wire{data: data, sendTime: *n.clock}
	*n.clock = n.cluster.Send(src, dst, len(data), *n.clock)
}

// Recv blocks for a message from peer and advances the clock to the
// arrival time: max(local, remote-send) + α + βn.
func (n *Node) Recv(peer int) []float32 {
	src, dst := peer, n.Rank
	if uint(src) >= uint(n.cluster.P) {
		panic(n.badPeer("receive from", src))
	}
	m := <-n.run.channel(src, dst)
	*n.clock = n.cluster.Arrive(src, dst, len(m.data), *n.clock, m.sendTime)
	return m.data
}

// SendRecv exchanges messages with peer; the two directions proceed
// concurrently over the bidirectional link, so the node pays one
// α+βn for the larger of the two transfers.
func (n *Node) SendRecv(peer int, sendData []float32) []float32 {
	src, dst := n.Rank, peer
	if uint(dst) >= uint(n.cluster.P) {
		panic(n.badPeer("sendrecv with", dst))
	}
	if dst == src {
		panic("simnet: sendrecv with self")
	}
	n.countMsg(src, dst, len(sendData))
	n.run.channel(src, dst) <- wire{data: sendData, sendTime: *n.clock}
	m := <-n.run.channel(dst, src)
	*n.clock = n.cluster.Arrive(src, dst, max(len(sendData), len(m.data)), *n.clock, m.sendTime)
	return m.data
}

// badPeer is the panic message for a peer outside [0, P).
func (n *Node) badPeer(op string, peer int) string {
	return fmt.Sprintf("simnet: rank %d: %s peer %d outside [0, %d)", n.Rank, op, peer, n.cluster.P)
}

// ChargeReduce accounts the local element-wise reduction of elems
// values (three streams: two reads and one write), on the MPE or the
// CPE clusters depending on the cluster configuration.
func (n *Node) ChargeReduce(elems int) { *n.clock = n.cluster.Reduce(elems, *n.clock) }

// NodePanic is the panic value Run/RunGather re-raise when a rank's
// body panics: the original value plus the world rank it died on.
// Recovery layers (the elastic shrink protocol) extract the victim
// via FailedRank without parsing the message text.
type NodePanic struct {
	Rank  int
	Value any
}

func (p NodePanic) Error() string {
	return fmt.Sprintf("simnet: node panic on rank %d: %v", p.Rank, p.Value)
}

func (p NodePanic) String() string { return p.Error() }

// FailedRank returns the world rank whose body panicked. The method
// (rather than the field) is the cross-package contract:
// elastic.FailedRank matches any panic value exposing it.
func (p NodePanic) FailedRank() int { return p.Rank }

// Unwrap exposes the original panic when it was itself an error.
func (p NodePanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Result is topology.Result, kept under this name only because the
// benchmark harness in bench/ names it.
type Result = topology.Result

// Run executes body on every rank concurrently and returns the
// makespan. Each invocation starts from zeroed clocks and a fresh set
// of message channels.
//
// Failure semantics: a panic on any rank is re-raised on the calling
// goroutine as soon as it is observed — peers blocked on the failed
// rank's channels are not joined first. Those stranded goroutines (and
// any wires they buffered, and any results they store late) reference
// only this Run's private state, so they can never deliver into a
// later Run: after recovering the panic the same Cluster can be reused
// and the next collective runs on clean state. The stranded goroutines
// themselves stay parked until process exit — one bounded leak per
// injected failure, the same trade an aborted MPI job makes.
func (c *Cluster) Run(body func(n *Node)) topology.Result {
	res, _ := c.RunGather(func(n *Node) []float32 {
		body(n)
		return nil
	})
	return res
}

// RunGather is Run for bodies that produce a per-rank result (the
// shape of an all-reduce): it additionally returns the ranks' return
// values, indexed by rank. Everything returned — the slice, and the
// vectors in it when they came from Scratch, as a one-shot
// allreduce.Algorithm's result does — is owned by the cluster and valid
// only until its next Run/RunGather: a caller keeping a result across
// runs copies it out. Collecting through here instead of through
// caller-owned shared storage matters for failure isolation: a rank
// that outlives a peer's panic stores its late result in the abandoned
// run's private memory. A body that instead reduces a vector of the
// caller's in place (allreduce.Schedule.Run) returns that vector, and a
// stranded rank writes it late: the caller abandons such vectors after
// a failed run, as collective.Engine.ResetStaging does.
func (c *Cluster) RunGather(body func(n *Node) []float32) (topology.Result, [][]float32) {
	var wg sync.WaitGroup
	c.mu.Lock()
	rs := c.pool
	c.pool = nil
	c.mu.Unlock()
	if rs == nil {
		rs = &runState{
			inbox:   make(map[[2]int]chan wire),
			results: make([][]float32, c.P),
			nodes:   make([]Node, c.P),
			clocks:  make([]float64, c.P),
			scratch: make([]scratch.Arena, c.P),
		}
	}
	rs.msgs.Store(0)
	rs.crossMsgs.Store(0)
	rs.crossBytes.Store(0)
	for r := range rs.nodes {
		rs.clocks[r] = 0
		rs.scratch[r].Rewind()
		rs.nodes[r] = Node{Rank: r, cluster: c, run: rs, clock: &rs.clocks[r]}
	}
	wg.Add(c.P)
	panicCh := make(chan NodePanic, c.P)
	for r := range rs.nodes {
		go func(nd *Node) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					panicCh <- NodePanic{Rank: nd.Rank, Value: rec}
				}
			}()
			rs.results[nd.Rank] = body(nd)
		}(&rs.nodes[r])
	}
	// A panicking rank can leave peers blocked on its channels; do not
	// insist on joining everyone before reporting the failure.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case np := <-panicCh:
		panic(np)
	case <-done:
	}
	select {
	case np := <-panicCh:
		panic(np)
	default:
	}
	res := topology.NewResult(rs.clocks, rs.msgs.Load(), rs.crossMsgs.Load(), rs.crossBytes.Load())
	// A completed collective must have consumed every message it sent
	// (an unconsumed wire on a clean exit is an algorithm bug worth
	// failing loudly on). Only a state that passes this check goes back
	// to the pool; the failure paths above abandoned rs with its
	// channels, so nothing stale can reach a later Run.
	rs.mu.Lock()
	for k, ch := range rs.inbox {
		select {
		case <-ch:
			rs.mu.Unlock()
			panic(fmt.Sprintf("simnet: unconsumed message on link %v", k))
		default:
		}
	}
	rs.mu.Unlock()
	c.mu.Lock()
	c.pool = rs
	c.mu.Unlock()
	return res, rs.results
}
