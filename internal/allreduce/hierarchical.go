package allreduce

import (
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// Topology-hierarchical all-reduce (ROADMAP "Hierarchical / q-aware
// collectives"). The paper's fix for the over-subscribed inter-
// supernode links is a rank *renumbering* that keeps RHD's heavy
// rounds inside supernodes; this schedule restructures the algorithm
// itself so that only the irreducible n/q bytes per node ever cross a
// supernode boundary, under either mapping:
//
//	phase A  intra-supernode reduce-scatter: the vector is split into
//	         K = MinGroupSize chunks; every member ships chunk j to
//	         its group's j-th member, who accumulates them in member
//	         order — all traffic on full-bandwidth Beta1 links.
//	phase B  inter-supernode RHD among the chunk leaders: the j-th
//	         members of every supernode (the supernode's leader for
//	         chunk j) run recursive halving/doubling over their n/K
//	         chunk — the only phase that touches Beta2 links, and the
//	         K leader groups carry disjoint 1/K-sized shares of it.
//	phase C  intra-supernode allgather: each leader fans its finished
//	         chunk back out to its group, again on Beta1 links.
//
// Degenerate shapes fold into the flat algorithms: one supernode
// (p <= q) makes phase B a no-op, and q = 1 makes every rank a
// single-member group so phase B is exactly the flat RHD.

// Hierarchical is the topology-hierarchical all-reduce. The supernode
// membership comes from the cluster's mapping (see topology.Members),
// so the schedule is topology-correct under both the adjacent and the
// round-robin numbering without any renumbering trick.
func Hierarchical(n *simnet.Node, data []float32) []float32 {
	return HierarchicalSegment(n, data, 0, len(data))
}

// HierarchicalSegment runs the hierarchical all-reduce restricted to
// the chunks of a larger packed vector that the segment
// [lo, lo+len(data)) covers; total is the packed vector's full length.
// Like RingSegment, the segment's bounds must lie on the algorithm's
// chunk partition — HierChunkBounds(total, K) with K the mapping's
// MinGroupSize — because chunk j's association order (leader j's own
// value, then the remaining group members in ascending order, then
// the RHD tree over supernodes) depends on the chunk index. Each
// bucket executes exactly the full schedule's per-chunk plan, so
// flushing a gradient bucket per segment is bit-identical to the
// barrier Hierarchical over the whole packed vector — the primitive
// behind the collective engine's hierarchical overlap. With lo=0,
// total=len(data) the schedule degenerates to the one-shot form.
func HierarchicalSegment(n *simnet.Node, data []float32, lo, total int) []float32 {
	hierPhase(n, HierIntraReduceScatter)
	out := append([]float32(nil), data...)
	p := n.P()
	if p == 1 {
		return out
	}
	h := newHierPlan(n.Supernodes(), n.Rank, lo, len(data), total)

	// Phase A: intra-supernode reduce-scatter as a round-robin
	// tournament of pairwise exchanges — every pair of members meets
	// exactly once per phase, and the full-duplex SendRecv charges one
	// α+βn for the pair (the same discipline that makes RHD fast on
	// simnet's blocking links). In the exchange (i, pt), i ships its
	// data for chunk pt and receives pt's contribution to chunk i;
	// owner j therefore accumulates peer contributions in tournament-
	// round order — a fixed association schedule shared by the barrier
	// form and every segment. What i ships is its untouched input for
	// chunk pt (phase A writes only chunk j), so it goes by reference,
	// straight from data, which nobody writes during the run. Its own
	// copy of chunk pt, in out, is next written in phase C, on pt's
	// phase-C message — which pt posts only after it has consumed every
	// phase-A wire — so even that would be safe to send.
	for r := 0; r < h.rounds; r++ {
		pt := h.partner(r)
		if pt < 0 {
			continue
		}
		var send []float32
		if h.live(pt) {
			plo, phi := h.seg.chunk(pt)
			send = data[plo:phi]
		}
		in := n.SendRecv(h.group[pt], send)
		if h.live(h.j) {
			clo, _ := h.seg.chunk(h.j)
			for x, v := range in {
				out[clo+x] += v
			}
			n.ChargeReduce(len(in))
		}
	}

	// Phase B: recursive halving/doubling among chunk j's leaders —
	// the j-th member of every supernode (K = min group size, so every
	// group has one). The leader groups are disjoint rank sets running
	// concurrently, each over its own 1/K share of the vector.
	hierPhase(n, HierLeaderRHD)
	if leaders := h.leaders(); leaders != nil {
		clo, chi := h.seg.chunk(h.j)
		red := RecursiveHalvingDoubling(n.InGroup(leaders), out[clo:chi])
		copy(out[clo:chi], red)
	}

	// Phase C: intra-supernode allgather, the same pairwise tournament
	// in reverse roles — each exchange hands over the two partners'
	// finished chunks, so every member leaves with every chunk after
	// g-1 rounds. The finished chunk is sent by reference: its owner
	// never rewrites it within this run, and receivers copy out.
	hierPhase(n, HierAllgather)
	for r := 0; r < h.rounds; r++ {
		pt := h.partner(r)
		if pt < 0 {
			continue
		}
		var send []float32
		if h.live(h.j) {
			clo, chi := h.seg.chunk(h.j)
			send = out[clo:chi]
		}
		in := n.SendRecv(h.group[pt], send)
		if h.live(pt) {
			plo, _ := h.seg.chunk(pt)
			copy(out[plo:], in)
		}
	}
	return out
}

// hierPlan is one rank's view of a hierarchical flush: its supernode
// group, its position j in it (the chunk it owns), and the segment of
// the K-chunk partition the call covers. The blocking body and its DES
// twin both walk it, so the schedule is decided in one place.
type hierPlan struct {
	lay    *topology.Layout
	group  []int // world ranks of this rank's supernode, ascending
	j      int   // this rank's index in group
	rounds int   // tournament rounds per intra phase
	seg    segment
}

func newHierPlan(lay *topology.Layout, rank, lo, n, total int) hierPlan {
	group := lay.Groups[lay.GroupOf[rank]]
	return hierPlan{lay: lay, group: group, j: lay.IndexOf[rank],
		rounds: tournamentRounds(len(group)),
		seg:    newSegment(lo, n, total, lay.MinSize)}
}

// live reports whether chunk c carries traffic in this call: it exists
// (c < K), falls in the segment, and is non-empty. The predicate is
// the same on both ends of an exchange, so partners always agree on
// whether to meet.
func (h *hierPlan) live(c int) bool {
	if !h.seg.has(c) {
		return false
	}
	lo, hi := h.seg.chunk(c)
	return lo != hi
}

// partner returns this rank's tournament partner in round r, or -1 when
// it sits the round out: a bye, or an exchange in which neither side's
// chunk is live.
func (h *hierPlan) partner(r int) int {
	pt := tournamentPartner(h.j, r, len(h.group))
	if pt < 0 || (!h.live(pt) && !h.live(h.j)) {
		return -1
	}
	return pt
}

// leaders returns the leader group this rank joins in phase B — the
// j-th member of every supernode — or nil when it has no inter-
// supernode work: its chunk is not live, or there is one supernode.
func (h *hierPlan) leaders() []int {
	if !h.live(h.j) || len(h.lay.Groups) < 2 {
		return nil
	}
	return h.lay.Leaders(h.j)
}

// tournamentRounds returns the round count of the all-pairs exchange
// schedule over g members: g-1 for even g, g for odd g (the circle
// method adds a bye slot).
func tournamentRounds(g int) int {
	if g%2 == 0 {
		return g - 1
	}
	return g
}

// tournamentPartner returns member j's partner in round r of the
// round-robin tournament over g members (the circle method: member
// G-1 fixed, the rest rotating), or -1 when j sits out the round (the
// bye of an odd-sized group). Every pair of members meets in exactly
// one round, so each phase of the hierarchical schedule exchanges
// every chunk exactly once per pair over full-duplex links.
func tournamentPartner(j, r, g int) int {
	if g < 2 {
		return -1
	}
	G := g
	if G%2 == 1 {
		G++ // dummy bye slot
	}
	var pt int
	if j == G-1 {
		pt = r % (G - 1)
	} else {
		pos := ((j-r)%(G-1) + (G - 1)) % (G - 1)
		if pos == 0 {
			pt = G - 1
		} else {
			pt = (G - 1 - pos + r) % (G - 1)
		}
	}
	if pt >= g {
		return -1 // partnered with the bye slot
	}
	return pt
}

// HierChunkBounds exposes the hierarchical schedule's chunk partition
// of an n-element vector: k chunks (k = topology.MinGroupSize of the
// active mapping), chunk c spanning [b[c], b[c+1]). The collective
// engine snaps hierarchical bucket boundaries onto these bounds so
// each bucket is a whole number of leader-owned chunks (see
// HierarchicalSegment).
func HierChunkBounds(n, k int) []int { return ChunkBounds(n, k) }
