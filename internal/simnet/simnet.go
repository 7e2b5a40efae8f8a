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
//
// A rank that panics revokes its run, as ULFM's revoke does an MPI
// communicator, and the run returns only once every rank has (see Run).
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
	// reuse: its channels are drained, its ranks joined. A failed Run
	// never returns its state here — its links may still hold wires
	// the dead run posted — so the next Run starts clean.
	mu   sync.Mutex
	pool *runState
}

type wire struct {
	data     []float32
	sendTime float64
}

// abort is the panic value with which a Send, Recv or SendRecv leaves a
// revoked run (see runState.dead). It unwinds the rank's body like any
// panic, but it names no failure: RunGather reports the rank that
// revoked the run, never the ranks the revoke interrupted.
type abort struct{}

// runState is the message-passing state of one Run, reused by the
// next Run only when this one completed cleanly.
type runState struct {
	mu    sync.Mutex
	inbox map[[2]int]chan wire // (src, dst) -> channel

	// dead is closed by the first rank that panics. Every blocking
	// message operation selects on it, so no rank stays parked on a
	// peer that will never send or receive again. failure, guarded by
	// mu, is the lowest rank whose body panicked with anything but
	// abort; nil while the run is alive.
	dead    chan struct{}
	failure *NodePanic

	wg sync.WaitGroup

	// results, nodes, clocks and scratch are RunGather's per-rank
	// return values, handles, logical clocks and bump arenas (see
	// Node.Scratch), recycled with the channels.
	results [][]float32
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

// fail records rank's panic value. The first failure revokes the run;
// of the failures, the lowest rank's is the one RunGather re-raises, so
// which rank is named does not depend on which goroutine the host
// scheduled first. An abort only follows a revoke and is not recorded.
func (rs *runState) fail(rank int, v any) {
	if _, ok := v.(abort); ok {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.failure == nil {
		close(rs.dead)
	}
	if rs.failure == nil || rank < rs.failure.Rank {
		rs.failure = &NodePanic{Rank: rank, Value: v}
	}
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
// rank's result.
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
	n.post(src, dst, data)
	*n.clock = n.cluster.Send(src, dst, len(data), *n.clock)
}

// Recv blocks for a message from peer and advances the clock to the
// arrival time: max(local, remote-send) + α + βn.
func (n *Node) Recv(peer int) []float32 {
	src, dst := peer, n.Rank
	if uint(src) >= uint(n.cluster.P) {
		panic(n.badPeer("receive from", src))
	}
	m := n.take(src, dst)
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
	n.post(src, dst, sendData)
	m := n.take(dst, src)
	*n.clock = n.cluster.Arrive(src, dst, max(len(sendData), len(m.data)), *n.clock, m.sendTime)
	return m.data
}

// post queues data on the src→dst link, stamped with the sender's
// clock, unless the run is revoked first.
func (n *Node) post(src, dst int, data []float32) {
	select {
	case n.run.channel(src, dst) <- wire{data: data, sendTime: *n.clock}:
	case <-n.run.dead:
		panic(abort{})
	}
}

// take waits for the next wire on the src→dst link, unless the run is
// revoked first.
func (n *Node) take(src, dst int) wire {
	select {
	case m := <-n.run.channel(src, dst):
		return m
	case <-n.run.dead:
		panic(abort{})
	}
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
// Failure semantics: a panic on any rank revokes the run. Every Send,
// Recv or SendRecv of the run that is blocked, or called later, then
// unwinds its rank, so every rank returns; Run joins them all and
// re-raises, as a NodePanic, the panic of the lowest rank that failed
// on its own (a rank only unwound by the revoke is not one). Nothing
// of the failed run is left running, and its channels are dropped, so
// after recovering the panic the same Cluster can be reused and the
// next collective runs on clean state.
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
// runs copies it out. A body that instead reduces a vector of the
// caller's in place (allreduce.Schedule.Run) returns that vector. It
// fails as Run does.
func (c *Cluster) RunGather(body func(n *Node) []float32) (topology.Result, [][]float32) {
	c.mu.Lock()
	rs := c.pool
	c.pool = nil
	c.mu.Unlock()
	if rs == nil {
		rs = &runState{
			inbox:   make(map[[2]int]chan wire),
			dead:    make(chan struct{}),
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
	rs.wg.Add(c.P)
	for r := range rs.nodes {
		go rs.rank(&rs.nodes[r], body)
	}
	rs.wg.Wait()
	if rs.failure != nil {
		panic(*rs.failure)
	}
	res := topology.NewResult(rs.clocks, rs.msgs.Load(), rs.crossMsgs.Load(), rs.crossBytes.Load())
	// A completed collective must have consumed every message it sent
	// (an unconsumed wire on a clean exit is an algorithm bug worth
	// failing loudly on). Only a state that passes this check goes back
	// to the pool.
	for k, ch := range rs.inbox {
		select {
		case <-ch:
			panic(fmt.Sprintf("simnet: unconsumed message on link %v", k))
		default:
		}
	}
	c.mu.Lock()
	c.pool = rs
	c.mu.Unlock()
	return res, rs.results
}

// rank runs body on nd's goroutine and records its panic, if any.
func (rs *runState) rank(nd *Node, body func(n *Node) []float32) {
	defer rs.wg.Done()
	defer func() {
		if rec := recover(); rec != nil {
			rs.fail(nd.Rank, rec)
		}
	}()
	rs.results[nd.Rank] = body(nd)
}
