package swnode

import (
	"fmt"

	"swcaffe/internal/obs"
	"swcaffe/internal/sw26010"
)

// Cluster composes N simulated SW26010 nodes into one machine: the
// multi-node counterpart of Node that the distributed trainer drives
// (paper Sec. V — Algorithm 1's 4-CG node compute replicated across
// the interconnect). Each member node owns its four CoreGroups and its
// own modeled timeline; nodes share nothing, so launches on different
// nodes execute concurrently on the host exactly like launches on
// different CoreGroups of one node do, and per-node simulated times
// stay independent and deterministic.
//
// Cluster only manages node lifetime and aggregate views; inter-node
// communication is simnet's job (the two simulators compose: node
// timelines price the compute legs, simnet prices the collectives).
type Cluster struct {
	nodes []*Node
}

// NewCluster builds p simulated nodes around one hardware model (nil
// selects the calibrated default). CPE coroutines are built lazily by
// each node's first launch, so an idle cluster costs no goroutines.
func NewCluster(p int, m *sw26010.Model) *Cluster { return newCluster(p, m, NewNode) }

// NewDESCluster builds p DES nodes for the discrete-event backend (see
// NewDESNode): the full stream/event/scheduler semantics and per-node
// modeled timelines with no CoreGroups and zero goroutines anywhere —
// launches run inline on the driver, which is what lets functional
// sweeps reach p = 1024/4096.
func NewDESCluster(p int, m *sw26010.Model) *Cluster { return newCluster(p, m, NewDESNode) }

func newCluster(p int, m *sw26010.Model, mk func(*sw26010.Model) *Node) *Cluster {
	if p <= 0 {
		panic(fmt.Sprintf("swnode: cluster size %d must be positive", p))
	}
	if m == nil {
		m = sw26010.Default()
	}
	c := &Cluster{nodes: make([]*Node, p)}
	for i := range c.nodes {
		c.nodes[i] = mk(m)
	}
	return c
}

// DES reports whether the cluster's nodes are DES nodes.
func (c *Cluster) DES() bool { return c.nodes[0].DES() }

// Node returns node i (0..p-1).
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// SetTracer attaches tr to every node, using each node's rank as its
// trace process track. nil detaches.
func (c *Cluster) SetTracer(tr *obs.Tracer) {
	for i, n := range c.nodes {
		n.SetTracer(tr, i)
	}
}

// Launches sums the launches submitted across all nodes so far.
func (c *Cluster) Launches() int {
	var total int
	for _, n := range c.nodes {
		total += n.Launches()
	}
	return total
}

// Sync joins every node's outstanding launches. If any node recorded a
// kernel panic, Sync re-raises the lowest-indexed such node's first one
// — but only after every node has quiesced, so the cluster is never
// left with in-flight work behind a re-raised failure.
func (c *Cluster) Sync() {
	var first any
	for _, n := range c.nodes {
		if err := n.join(); first == nil {
			first = err
		}
	}
	if first != nil {
		panic(first)
	}
}

// Close drains every node and ends its CPE coroutines. The cluster
// must not be used afterwards.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		n.Close()
	}
}
