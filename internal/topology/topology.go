// Package topology describes the Sunway TaihuLight interconnect
// (paper Sec. II-B): a two-level network with 256-node supernodes at
// the bottom (full bandwidth, static destination-based routing) and a
// central switching network at the top provisioned with only a quarter
// of the full bisection bandwidth. Communication between nodes in
// different supernodes that over-subscribes the central switch
// achieves ~1/4 of the intra-supernode bandwidth (Fig. 6).
//
// The package also defines the rank-to-node mappings the paper's
// all-reduce optimization manipulates (Sec. V-A): the default
// *adjacent* numbering (ranks 0..q-1 in supernode 0, q..2q-1 in
// supernode 1, ...) versus the proposed *round-robin* numbering
// (rank r lives in supernode r mod S), which pushes the heavy early
// reduce-scatter rounds inside supernodes.
package topology

import (
	"fmt"
	"sort"
)

// SupernodeSize is q, the number of nodes per supernode on TaihuLight.
const SupernodeSize = 256

// Network holds the α-β parameters of a cluster interconnect. Times
// are seconds; rates are seconds per byte (β), so bandwidth = 1/β.
type Network struct {
	Name string
	// AlphaEager is the per-message latency for small (eager-protocol)
	// messages; AlphaRendezvous applies beyond RendezvousSize. The
	// paper's Fig. 6 shows the Sunway network's latency jumping above
	// Infiniband's once messages exceed ~2 KB.
	AlphaEager      float64
	AlphaRendezvous float64
	RendezvousSize  int64

	Beta1 float64 // transfer time per byte inside a supernode
	Beta2 float64 // per byte across supernodes when over-subscribed

	// GammaMPE and GammaCPE are the per-byte local reduction costs on
	// the management core versus on the four CPE clusters; swCaffe
	// moves the post-gather summation onto the CPEs (Sec. V-A).
	GammaMPE float64
	GammaCPE float64

	SupernodeSize int
}

// Sunway returns the TaihuLight parameter set, digitized from the
// paper: 12 GB/s achieved MPI P2P (16 GB/s theoretical), ~1/4 of that
// across over-subscribed supernode links, microsecond latency rising
// past 2 KB messages.
func Sunway() *Network {
	return &Network{
		Name:            "Sunway",
		AlphaEager:      1.5e-6,
		AlphaRendezvous: 9e-6,
		RendezvousSize:  2048,
		Beta1:           1.0 / 11e9,
		Beta2:           4.0 / 11e9,
		GammaMPE:        1.0 / 3.3e9,
		GammaCPE:        1.0 / 9.3e9,
		SupernodeSize:   SupernodeSize,
	}
}

// InfinibandFDR returns the comparison fabric of Fig. 6: a 56 Gb/s FDR
// network with a flat topology (no over-subscription modeled).
func InfinibandFDR() *Network {
	return &Network{
		Name:            "Infiniband FDR",
		AlphaEager:      1.0e-6,
		AlphaRendezvous: 2.5e-6,
		RendezvousSize:  8192,
		Beta1:           1.0 / 6.2e9,
		Beta2:           1.0 / 6.2e9,
		GammaMPE:        1.0 / 6e9,
		GammaCPE:        1.0 / 6e9,
		SupernodeSize:   1 << 30, // effectively one flat domain
	}
}

// Alpha returns the per-message latency for an n-byte message.
func (n *Network) Alpha(bytes int64) float64 {
	if bytes > n.RendezvousSize {
		return n.AlphaRendezvous
	}
	return n.AlphaEager
}

// Beta returns the per-byte transfer time between two physical nodes.
func (n *Network) Beta(sameSupernode bool) float64 {
	if sameSupernode {
		return n.Beta1
	}
	return n.Beta2
}

// P2PTime returns the α+βn point-to-point time between two nodes. The
// product is rounded explicitly so that arm64 does not fuse it into the
// add (see Fabric).
func (n *Network) P2PTime(bytes int64, sameSupernode bool) float64 {
	return n.Alpha(bytes) + float64(float64(bytes)*n.Beta(sameSupernode))
}

// Bandwidth returns the effective P2P bandwidth (bytes/s) for a
// message of the given size, the quantity plotted in Fig. 6.
func (n *Network) Bandwidth(bytes int64, sameSupernode bool) float64 {
	return float64(bytes) / n.P2PTime(bytes, sameSupernode)
}

// Mapping translates a logical MPI rank to a physical supernode.
type Mapping interface {
	// Supernode returns the physical supernode index of logical rank r
	// among p total ranks.
	Supernode(r, p int) int
	Name() string
}

// AdjacentMapping is the default system numbering: ranks fill one
// supernode before the next ("nodes within the same supernode are
// assigned adjacent logical node numbers").
type AdjacentMapping struct{ Q int }

// Supernode implements Mapping.
func (m AdjacentMapping) Supernode(r, p int) int { return r / m.Q }

// Name implements Mapping.
func (m AdjacentMapping) Name() string { return "adjacent" }

// RoundRobinMapping is the paper's improvement: logical numbers are
// dealt to supernodes in a round-robin way, so the first log(p/q)
// doubling distances stay inside one supernode.
type RoundRobinMapping struct {
	Q int // supernode size
}

// Supernode implements Mapping. With p ranks over ceil(p/q) supernodes,
// rank r lives in supernode r mod S.
func (m RoundRobinMapping) Supernode(r, p int) int {
	s := (p + m.Q - 1) / m.Q
	if s < 1 {
		s = 1
	}
	return r % s
}

// Name implements Mapping.
func (m RoundRobinMapping) Name() string { return "round-robin" }

// Members returns the physical supernode groups of p ranks under the
// mapping: one ordered (ascending world rank) member list per occupied
// supernode, listed in supernode-index order. This is the membership
// structure the hierarchical all-reduce schedules against — every
// message between two ranks of one group travels an intra-supernode
// (Beta1) link regardless of the logical numbering, because groups are
// keyed by the *physical* supernode the mapping assigns.
func Members(m Mapping, p int) [][]int {
	bySN := map[int][]int{}
	var order []int
	for r := 0; r < p; r++ {
		sn := m.Supernode(r, p)
		if _, seen := bySN[sn]; !seen {
			order = append(order, sn)
		}
		bySN[sn] = append(bySN[sn], r)
	}
	sort.Ints(order)
	groups := make([][]int, 0, len(order))
	for _, sn := range order {
		groups = append(groups, bySN[sn])
	}
	return groups
}

// Layout is Members resolved once for a fixed (mapping, p): the groups,
// each rank's position in them, and the per-chunk leader lists of the
// hierarchical all-reduce. Every Fabric resolves one at construction,
// so a collective body looks its supernode up in O(1)
// instead of rebuilding the membership on every rank of every flush,
// and the per-message same-supernode test is two slice reads. A Layout
// is immutable after NewLayout and safe to share between goroutines.
type Layout struct {
	Groups  [][]int // Members(m, p)
	GroupOf []int   // world rank -> index into Groups
	IndexOf []int   // world rank -> position within its group
	MinSize int     // MinGroupSize(m, p)

	leaders [][]int // [c][s] = Groups[s][c], c < MinSize
}

// NewLayout resolves the supernode membership of p ranks under m.
func NewLayout(m Mapping, p int) *Layout {
	l := &Layout{Groups: Members(m, p), GroupOf: make([]int, p), IndexOf: make([]int, p)}
	for s, g := range l.Groups {
		if l.MinSize == 0 || len(g) < l.MinSize {
			l.MinSize = len(g)
		}
		for i, r := range g {
			l.GroupOf[r], l.IndexOf[r] = s, i
		}
	}
	flat := make([]int, l.MinSize*len(l.Groups))
	l.leaders = make([][]int, l.MinSize)
	for c := range l.leaders {
		l.leaders[c] = flat[c*len(l.Groups) : (c+1)*len(l.Groups)]
		for s, g := range l.Groups {
			l.leaders[c][s] = g[c]
		}
	}
	return l
}

// Same reports whether world ranks a and b share a supernode — the
// memoised form of comparing Mapping.Supernode.
func (l *Layout) Same(a, b int) bool { return l.GroupOf[a] == l.GroupOf[b] }

// Leaders returns the c-th member of every supernode in supernode-index
// order (c < MinSize): the leader group that reduces chunk c across
// supernodes. The slice is shared; callers must not modify it.
func (l *Layout) Leaders(c int) []int { return l.leaders[c] }

// MinGroupSize returns the smallest occupied supernode's member count
// under the mapping. The hierarchical all-reduce partitions the vector
// into exactly this many chunks, so every supernode has an owner for
// every chunk — it is the chunk count the hierarchical bucketing
// strategy snaps overlap buckets onto.
func MinGroupSize(m Mapping, p int) int {
	min := 0
	for _, g := range Members(m, p) {
		if min == 0 || len(g) < min {
			min = len(g)
		}
	}
	if min < 1 {
		min = 1
	}
	return min
}

// Validate checks that a mapping puts p ranks on supernodes of at most
// q nodes each, naming the lowest-numbered over-full supernode. A
// mapping of this package with Q < 1 is an error rather than the
// division by zero its Supernode would panic with.
func Validate(m Mapping, p, q int) error {
	mq := 1
	switch mm := m.(type) {
	case AdjacentMapping:
		mq = mm.Q
	case RoundRobinMapping:
		mq = mm.Q
	}
	if mq < 1 {
		return fmt.Errorf("topology: mapping %s has Q = %d, want at least 1 node per supernode", m.Name(), mq)
	}
	var counts []int
	for r := 0; r < p; r++ {
		sn := m.Supernode(r, p)
		if sn >= len(counts) {
			counts = append(counts, make([]int, sn+1-len(counts))...)
		}
		counts[sn]++
	}
	for sn, c := range counts {
		if c > q {
			return fmt.Errorf("topology: mapping %s puts %d ranks in supernode %d (max %d)",
				m.Name(), c, sn, q)
		}
	}
	return nil
}
