package allreduce

import "swcaffe/internal/topology"

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

// HierPhase names one phase boundary of the hierarchical schedule, in
// schedule order; it indexes PhaseClocks.
type HierPhase uint8

const (
	HierIntraReduceScatter HierPhase = iota // before phase A's tournament
	HierLeaderRHD                           // before phase B's leader RHD, on every rank, leader or not
	HierAllgather                           // before phase C's tournament
	noPhase                                 // a round that is no boundary
)

func (p HierPhase) String() string {
	return [...]string{"intra-reduce-scatter", "leader-rhd", "allgather"}[p]
}

// PhaseClocks is where a caller of Schedule.Run or RunDES asks a rank of
// the hierarchical schedule for its simulated clock on entering each
// phase (a lone rank enters the first only). It belongs to the call, so
// two collectives in flight never share one.
type PhaseClocks [noPhase]float64

// hierCursor walks the three phases for one rank: its supernode group,
// its position j in it (the chunk it owns), and the segment of the
// K-chunk partition the call covers. Like the ring's, the segment's
// bounds must lie on the partition — HierChunkBounds(total, K) — because
// chunk j's association order (leader j's own value, then its group in
// tournament-round order, then the RHD tree over supernodes) depends on
// the chunk index; each bucket then executes exactly the full
// schedule's per-chunk plan, so flushing a gradient bucket per segment
// is bit-identical to the one flush over the whole packed vector.
//
// Phases A and C are a round-robin tournament of pairwise full-duplex
// exchanges: every pair of members meets exactly once per phase. In
// phase A's exchange (j, pt), j ships its own chunk pt — phase A writes
// only chunk j, and what next writes chunk pt is phase C's exchange
// with pt itself, so it goes by reference, untouched, from the input —
// and adds pt's contribution to its chunk j, the first time fresh; in
// phase C the two hand over their finished chunks, which are never
// rewritten.
// Phase B embeds the RHD cursor over chunk j's leaders — the j-th
// member of every supernode (K = min group size, so every group has
// one) — translating its leader indices to world ranks. The RHD runs in
// the chunk itself wherever the chunk is the RHD's whole vector: on a
// folded leader, which only ships and receives it, and on a core leader
// whose chunk needs no pad. A core leader whose chunk does runs it in a
// padded scratch vector loaded from, and stored back to, the chunk.
// Where phase A never wrote chunk j (a one-member group), the RHD in
// the chunk starts fresh, and the load into scratch reads the input.
type hierCursor struct {
	group   []int // world ranks of this rank's supernode, ascending
	j       int   // this rank's index in group
	seg     segment
	leaders []int // chunk j's leaders; nil when the rank has no inter-supernode work
	inPlace bool  // the leader RHD runs in the chunk, not in scratch
	solo    bool  // p = 1: the schedule ends at its first boundary
	wrote   bool  // phase A has reduced into chunk j
	stage   uint8
	round   int
}

const (
	hierEnter uint8 = iota
	hierIntraRS
	hierEnterLeaders
	hierLoad
	hierLeaders
	hierStore
	hierEnterAllgather
	hierGather
	hierDone
)

// newHierCursor starts rank's hierarchical schedule, and the leader RHD
// it embeds when the rank has inter-supernode work: its chunk is live
// and there is more than one supernode. A leader's RHD rank is its
// supernode's index, the order of the leader list.
func newHierCursor(lay *topology.Layout, rank, p, lo, n, total int) (c hierCursor, rhd rhdCursor) {
	c = hierCursor{group: lay.Groups[lay.GroupOf[rank]], j: lay.IndexOf[rank],
		seg: newSegment(lo, n, total, lay.MinSize), solo: p == 1}
	if c.live(c.j) && len(lay.Groups) > 1 {
		c.leaders = lay.Leaders(c.j)
		n := c.seg.span(result, c.j).len()
		rhd = newRHDCursor(lay.GroupOf[rank], len(c.leaders), n, false)
		c.inPlace = rhd.vecLen() == n
	}
	return c, rhd
}

func (c *hierCursor) next(rd *round, rhd *rhdCursor) bool {
	mine := c.seg.span(result, c.j)
	for {
		switch c.stage {
		case hierEnter:
			c.stage = hierIntraRS
			if c.solo {
				c.stage = hierDone
			}
			rd.phase = HierIntraReduceScatter
			return true
		case hierIntraRS, hierGather:
			for c.round < tournamentRounds(len(c.group)) {
				pt := c.partner(c.round)
				c.round++
				if pt < 0 {
					continue
				}
				theirs := c.seg.span(result, pt)
				if c.stage == hierGather {
					rd.exchange(c.group[pt], mine, theirs, false)
				} else {
					rd.exchange(c.group[pt], theirs.untouched(), mine, mine.len() > 0)
					rd.fresh = rd.reduce && !c.wrote
					c.wrote = c.wrote || rd.reduce
				}
				return true
			}
			c.round = 0
			c.stage++
		case hierEnterLeaders:
			c.stage = hierEnterAllgather
			if c.leaders != nil {
				c.stage = hierLoad
			}
			rd.phase = HierLeaderRHD
			return true
		case hierLoad:
			c.stage = hierLeaders
			if c.inPlace {
				rhd.fresh = !c.wrote
				continue
			}
			rd.local, rd.send, rd.recv = true, mine, span{work, 0, rhd.vecLen()}
			if !c.wrote {
				rd.send = mine.untouched()
			}
			return true
		case hierLeaders:
			if rhd.next(rd) {
				if rd.sendTo >= 0 {
					rd.sendTo = c.leaders[rd.sendTo]
				}
				if rd.recvFrom >= 0 {
					rd.recvFrom = c.leaders[rd.recvFrom]
				}
				rd.send, rd.recv = leaderSpan(rd.send, c.inPlace, mine.lo), leaderSpan(rd.recv, c.inPlace, mine.lo)
				return true
			}
			c.stage = hierStore
		case hierStore:
			c.stage = hierEnterAllgather
			if !c.inPlace {
				rd.local, rd.send, rd.recv = true, span{work, 0, mine.len()}, mine
				return true
			}
		case hierEnterAllgather:
			c.stage = hierGather
			rd.phase = HierAllgather
			return true
		default:
			return false
		}
	}
}

// leaderSpan places a range of the leader RHD's vector: in the chunk
// itself (at lo in the result, or in the input for a first touch) when
// the RHD runs in place, and in the scratch vector otherwise.
func leaderSpan(s span, inPlace bool, lo int) span {
	if inPlace {
		return span{s.vec, s.lo + lo, s.hi + lo}
	}
	return span{work, s.lo, s.hi}
}

// live reports whether chunk ch carries traffic in this call: it exists
// (ch < K), falls in the segment, and is non-empty. The predicate is
// the same on both ends of an exchange, so partners always agree on
// whether to meet.
func (c *hierCursor) live(ch int) bool { return c.seg.span(result, ch).len() > 0 }

// partner returns this rank's tournament partner in round r, or -1 when
// it sits the round out: a bye, or an exchange in which neither side's
// chunk is live.
func (c *hierCursor) partner(r int) int {
	pt := tournamentPartner(c.j, r, len(c.group))
	if pt < 0 || (!c.live(pt) && !c.live(c.j)) {
		return -1
	}
	return pt
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
// engine snaps hierarchical bucket boundaries onto these bounds (it
// calls ChunkBounds) so each bucket is a whole number of leader-owned
// chunks (see hierCursor). No program calls it: it is the name the
// collective and train tests check bucket layouts against, and the
// module root's reachability test allowlists it as such.
func HierChunkBounds(n, k int) []int { return ChunkBounds(n, k) }
