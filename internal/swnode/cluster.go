package swnode

import (
	"fmt"

	"swcaffe/internal/obs"
	"swcaffe/internal/sw26010"
)

// Cluster composes N simulated SW26010 nodes into one machine: the
// multi-node counterpart of Node that the distributed trainer drives
// (paper Sec. V — Algorithm 1's 4-CG node compute replicated across
// the interconnect). Nodes share nothing: launches on different nodes
// execute concurrently on the host, and per-node simulated times stay
// independent and deterministic. Inter-node communication is simnet's
// job: node timelines price the compute legs, simnet the collectives.
type Cluster struct {
	nodes []Node
}

// NewCluster builds p simulated nodes around one hardware model (nil
// selects the calibrated default). CPEs are built lazily by each
// node's first launch, so an idle cluster costs no mesh.
func NewCluster(p int, m *sw26010.Model) *Cluster { return newCluster(p, m, false) }

// NewDESCluster builds p nodes for the discrete-event backend, with no
// CoreGroups behind them: launches go through Stream.LaunchFunc, run
// inline on the submitting goroutine and are charged the modeled
// seconds they return. Stream ordering, event dependencies, the
// deterministic 4-slot least-loaded scheduler and the modeled
// timeline behave exactly as on a pooled node. Running inline is valid
// because DES launches are only submitted from one single-threaded
// driver, so every launch a new one depends on has already completed:
// the DAG resolves in submission order. The nodes spawn no goroutines,
// and a warm launch allocates nothing (see LaunchFunc).
func NewDESCluster(p int, m *sw26010.Model) *Cluster { return newCluster(p, m, true) }

// newCluster builds the p nodes in one slice.
func newCluster(p int, m *sw26010.Model, des bool) *Cluster {
	if p <= 0 {
		panic(fmt.Sprintf("swnode: cluster size %d must be positive", p))
	}
	if m == nil {
		m = sw26010.Default()
	}
	c := &Cluster{nodes: make([]Node, p)}
	for i := range c.nodes {
		n := &c.nodes[i]
		n.Model, n.des, n.next = m, des, &n.rec0
		n.stream = Stream{node: n, pin: Unpinned}
		if !des {
			for cg := range n.cgs {
				n.cgs[cg] = sw26010.NewCoreGroup(m)
			}
		}
	}
	return c
}

// Node returns node i (0..p-1).
func (c *Cluster) Node(i int) *Node { return &c.nodes[i] }

// SetTracer attaches tr to every node, using each node's rank as its
// trace process track. nil detaches.
func (c *Cluster) SetTracer(tr *obs.Tracer) {
	for i := range c.nodes {
		c.nodes[i].SetTracer(tr, i)
	}
}

// Launches sums the launches submitted across all nodes so far.
func (c *Cluster) Launches() int {
	var total int
	for i := range c.nodes {
		total += c.nodes[i].Launches()
	}
	return total
}

// Sync joins every node's outstanding launches. If any node recorded a
// kernel panic, Sync re-raises the lowest-indexed such node's first one
// — but only after every node has quiesced, so the cluster is never
// left with in-flight work behind a re-raised failure.
func (c *Cluster) Sync() {
	var first any
	for i := range c.nodes {
		if err := c.nodes[i].join(); first == nil {
			first = err
		}
	}
	if first != nil {
		panic(first)
	}
}

// Close drains every node and closes its CoreGroups. The cluster must
// not be used afterwards.
func (c *Cluster) Close() {
	for i := range c.nodes {
		c.nodes[i].Close()
	}
}
