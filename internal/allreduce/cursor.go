package allreduce

import (
	"fmt"

	"swcaffe/internal/topology"
)

// Every all-reduce is described once, as a per-rank round cursor: a
// plain value that yields the rank's steps in program order as data —
// who to send which range of which vector to, who to receive from and
// where the payload lands, reduced or copied. A cursor holds no payload
// and knows no backend; its control flow depends only on (rank, p,
// layout, lengths), never on data, so it can be stepped without running
// anything (the schedule-walk property test does) and the two
// interpreters in interp.go — a blocking loop over simnet.Node, a
// resumable one over des.Rank — own every side effect.
//
// Adding an algorithm is one cursor type with a next method, one case
// in cursor.next/newCursor and one row in the schedules table; the
// cursor marks its first touch of every result range (see round).

// vector names one of the three buffers a call works with.
type vector uint8

const (
	result vector = iota // the vector the call reduces into and returns; RHD's exact halving pads it
	work                 // the scratch sub-vector a padded hierarchical leader's RHD runs in
	input                // the caller's vector, only read; in place it is result itself
)

// span is the element range [lo, hi) of a vector.
type span struct {
	vec    vector
	lo, hi int
}

func (s span) len() int { return s.hi - s.lo }

// untouched is s's range of the input: what a rank reads for a result
// range it has not written yet.
func (s span) untouched() span { return span{input, s.lo, s.hi} }

// round is one step of a rank's schedule. Exactly one of three shapes:
// a phase boundary (a phase, nothing else); a local copy send → recv
// on this rank (a recv in work first takes recv.hi floats of scratch;
// the copy zeroes what it leaves of recv, which pads a vector); or
// communication — an optional send followed by an optional receive, or
// both at once as one full-duplex exchange when paired. Peers are world
// ranks, -1 for none. The payload sent is the range itself, never a
// copy: of the input where the result range is still untouched, of the
// result or of work otherwise — in place the input is the result, so
// every send is a loan under the package's ownership rule. The payload
// received has exactly recv.len() elements.
//
// The first write of a result range is a round's business too: a load
// from the input, a copy received over it, or a fresh reduce, which
// adds the payload to the input's range rather than the result's. Every
// cursor marks its first touches so, and a one-shot call then needs no
// copy of its input.
type round struct {
	phase HierPhase
	local bool

	sendTo int
	send   span

	recvFrom int
	recv     span // where the payload lands
	reduce   bool // add into recv (and charge the reduction) instead of copying
	fresh    bool // the reduce's addend is recv's range of the input: recv is untouched

	paired bool
}

// exchange makes rd one full-duplex SendRecv with peer.
func (rd *round) exchange(peer int, send, recv span, reduce bool) {
	rd.sendTo, rd.send = peer, send
	rd.recvFrom, rd.recv, rd.reduce = peer, recv, reduce
	rd.paired = true
}

// cursor is one rank's position in one call of a schedule. It is a
// concrete value — one struct for every algorithm, dispatched by a
// switch — so that on the goroutine path it lives on the interpreter's
// stack: an interface, closure or type parameter between the two would
// move the per-call state to the heap.
type cursor struct {
	kind Schedule
	lone bool // p = 1: nothing but a load of the input writes the result
	n    int
	ring ringCursor
	tree treeCursor
	rhd  rhdCursor // flat RHD, or the leader phase of hier
	hier hierCursor
}

// newCursor starts rank's schedule for the [lo, lo+n) segment of a
// total-element vector on p ranks laid out as lay. The element-uniform
// schedules (binomial tree, RHD) ignore lo and total.
func newCursor(kind Schedule, rank, p int, lay *topology.Layout, lo, n, total int) cursor {
	c := cursor{kind: kind, lone: p == 1, n: n}
	if p == 1 {
		lo, total = 0, n // a lone rank moves nothing, whatever the segment
	}
	switch kind {
	case schedRing:
		c.ring = ringCursor{rank: rank, p: p, seg: newSegment(lo, n, total, p)}
	case schedBinomial:
		c.tree = treeCursor{rank: rank, p: p, n: n, mask: 1}
	case schedRHD:
		c.rhd = newRHDCursor(rank, p, n, true)
	case schedHierarchical:
		c.hier, c.rhd = newHierCursor(lay, rank, p, lo, n, total)
	}
	return c
}

// next writes the rank's next round into rd, or reports that the
// schedule is complete.
func (c *cursor) next(rd *round) bool {
	*rd = round{phase: noPhase, sendTo: -1, recvFrom: -1}
	if c.lone {
		c.lone = false
		rd.local, rd.send, rd.recv = true, span{input, 0, c.n}, span{result, 0, c.n}
		return true
	}
	switch c.kind {
	case schedRing:
		return c.ring.next(rd)
	case schedBinomial:
		return c.tree.next(rd)
	case schedRHD:
		return c.rhd.next(rd)
	default:
		return c.hier.next(rd, &c.rhd)
	}
}

// resultLen is the length the call works the n-element vector at: n,
// except on a core rank of the flat RHD, which pads it for exact halves.
func (c *cursor) resultLen(n int) int {
	if c.kind == schedRHD {
		return c.rhd.vecLen()
	}
	return n
}

// --- ring ---------------------------------------------------------------

// ringCursor walks the ring all-reduce restricted to a segment: step t
// of the 2(p-1) sends chunk (rank-t) mod p to the next rank and
// receives chunk (rank-t-1) mod p from the previous one, whenever the
// chunk belongs to the segment. The first p-1 steps are the
// reduce-scatter, the rest the allgather, and every chunk goes as it
// is. A finished chunk is never written again. The partial chunk sent
// at scatter step s is next written by allgather step s, which copies
// the finished chunk over it — and that chunk descends from the
// neighbour's reduce of this very message, once around the ring and
// back, so the neighbour's read came first although the rank never
// hears from that neighbour directly. The chunk sent at step 0 is the
// rank's own, untouched until the allgather brings it back finished, so
// it goes from the input; every other chunk is scatter-received exactly
// once, first, so each of those reduces is fresh.
type ringCursor struct {
	rank, p int
	seg     segment
	t       int
}

func (c *ringCursor) next(rd *round) bool {
	for c.t < 2*(c.p-1) {
		t := c.t
		c.t++
		scatter := t < c.p-1
		if ch := mod(c.rank-t, c.p); c.seg.has(ch) {
			rd.sendTo, rd.send = (c.rank+1)%c.p, c.seg.span(result, ch)
			if t == 0 {
				rd.send = rd.send.untouched()
			}
		}
		if ch := mod(c.rank-t-1, c.p); c.seg.has(ch) {
			rd.recvFrom, rd.recv = mod(c.rank-1, c.p), c.seg.span(result, ch)
			rd.reduce, rd.fresh = scatter, scatter
		}
		if rd.sendTo >= 0 || rd.recvFrom >= 0 {
			return true
		}
	}
	return false
}

func mod(x, p int) int { return (x%p + p) % p }

// segment is the part of a k-chunk partition of a total-element vector
// that one call covers: elements [lo, lo+n), chunks [c0, c1). Chunk c
// of the partition spans [c·total/k, (c+1)·total/k).
type segment struct {
	lo, total, k int
	c0, c1       int
}

// newSegment resolves the chunk range of [lo, lo+n). The whole-vector
// segment is all k chunks (including empty ones, which the classic
// ring still circulates); an interior segment's bounds must lie on the
// partition.
func newSegment(lo, n, total, k int) segment {
	s := segment{lo: lo, total: total, k: k, c1: k}
	if lo != 0 || lo+n != total {
		s.c0 = chunkIndexAt(total, k, lo)
		s.c1 = chunkIndexAt(total, k, lo+n)
	}
	return s
}

// has reports whether chunk c belongs to the segment.
func (s segment) has(c int) bool { return s.c0 <= c && c < s.c1 }

// span returns chunk c's range relative to the segment's data, in vec;
// empty for a chunk outside the segment.
func (s segment) span(vec vector, c int) span {
	if !s.has(c) {
		return span{vec: vec}
	}
	return span{vec, c*s.total/s.k - s.lo, (c+1)*s.total/s.k - s.lo}
}

// chunkIndexAt returns the index of the chunk of the k-chunk partition
// of total elements whose lower bound equals off, panicking when off
// does not lie on a chunk boundary (a bucket that was not
// chunk-aligned). Repeated bounds (empty chunks, total < k) resolve to
// the first chunk starting at off.
func chunkIndexAt(total, k, off int) int {
	// The smallest c with c·total/k >= off is ceil(off·k/total).
	c := 0
	if total > 0 {
		c = (off*k + total - 1) / total
	}
	if off >= 0 && c <= k && c*total/k == off {
		return c
	}
	panic(fmt.Sprintf("allreduce: segment bound %d not on a chunk boundary %v", off, ChunkBounds(total, k)))
}

// --- binomial tree -------------------------------------------------------

// treeCursor walks the MPICH binomial reduce to root 0 and the binomial
// broadcast back: a rank climbs, folding in the child at each level,
// until its lowest set bit, where it ships the full vector to its
// parent and waits there for the result; then it feeds the children
// hanging below that level, nearest last. The first child's reduce is
// fresh, and a leaf, which has reduced nothing, ships its input.
type treeCursor struct {
	rank, p, n int
	mask       int
	down       bool
	wrote      bool // a child's reduce has written the result
}

func (c *treeCursor) next(rd *round) bool {
	whole := span{result, 0, c.n}
	for !c.down && c.mask < c.p {
		m := c.mask
		if c.rank&m != 0 {
			c.down = true
			rd.sendTo, rd.send = c.rank-m, whole
			if !c.wrote {
				rd.send = whole.untouched()
			}
			rd.recvFrom, rd.recv = c.rank-m, whole
			return true
		}
		c.mask <<= 1
		if c.rank+m < c.p {
			rd.recvFrom, rd.recv, rd.reduce = c.rank+m, whole, true
			rd.fresh, c.wrote = !c.wrote, true
			return true
		}
	}
	c.down = true
	for c.mask > 1 {
		c.mask >>= 1
		if c.rank+c.mask < c.p {
			rd.sendTo, rd.send = c.rank+c.mask, whole
			return true
		}
	}
	return false
}

// --- recursive halving / doubling ----------------------------------------

// rhdCursor walks the Rabenseifner all-reduce over p ranks numbered
// 0..p-1. Ranks beyond the power-of-two core ship their vector down and
// wait for the result, which the same partner sends into it; a core
// rank folds its partner in, halves at distance pow2/2 … 1 and
// doubles back at 1 … pow2/2 inside one vector padded to a multiple of
// pow2 (so every half is exact; the pad is cut off the result), then
// unfolds. Every range goes in place: the half given away at distance
// d is next written by the doubling exchange with the same peer, and
// the span owned while doubling is finished.
//
// A fresh cursor starts on an untouched result. Its first touches read
// the input: the folded rank's send, the core rank's fold receive, or
// else its first halving exchange, which sends a half of the input and
// reduces the other half fresh. A core rank whose vector needs a pad
// cannot halve the input, which ends before the pad, so it first loads
// the input into the result and zeroes the pad.
type rhdCursor struct {
	rank, n   int
	pow2, rem int
	stage     uint8
	fresh     bool // nothing has written the result yet
	d         int  // distance of the next exchange
	off, cnt  int  // the span the rank owns
}

const (
	rhdLoad uint8 = iota
	rhdFold
	rhdHalve
	rhdDouble
	rhdUnfold
	rhdDone
)

func newRHDCursor(rank, p, n int, fresh bool) rhdCursor {
	c := rhdCursor{rank: rank, n: n, pow2: 1, fresh: fresh}
	for c.pow2*2 <= p {
		c.pow2 *= 2
	}
	c.rem, c.d, c.cnt = p-c.pow2, c.pow2/2, c.vecLen()
	return c
}

// folded reports whether the rank sits outside the power-of-two core.
func (c *rhdCursor) folded() bool { return c.rank >= c.pow2 }

// vecLen is the length of the vector the rank's result ranges index: n
// padded to a multiple of pow2 on a core rank, n itself on a folded one.
func (c *rhdCursor) vecLen() int {
	if c.folded() {
		return c.n
	}
	return (c.n + c.pow2 - 1) / c.pow2 * c.pow2
}

func (c *rhdCursor) next(rd *round) bool {
	whole := span{result, 0, c.n}
	for {
		switch c.stage {
		case rhdLoad:
			c.stage = rhdFold
			if c.fresh && c.vecLen() != c.n {
				c.fresh = false
				rd.local, rd.send, rd.recv = true, whole.untouched(), span{result, 0, c.vecLen()}
				return true
			}
		case rhdFold:
			c.stage = rhdHalve
			if c.folded() {
				c.stage = rhdDone
				rd.sendTo, rd.send = c.rank-c.pow2, c.first(whole)
				rd.recvFrom, rd.recv = c.rank-c.pow2, whole
				return true
			}
			if c.rank < c.rem {
				rd.recvFrom, rd.recv, rd.reduce = c.rank+c.pow2, whole, true
				rd.fresh, c.fresh = c.fresh, false
				return true
			}
		case rhdHalve:
			if c.d < 1 {
				c.d, c.stage = 1, rhdDouble
				continue
			}
			half := c.cnt / 2
			give, keep := c.off+half, c.off
			if c.rank&c.d != 0 {
				give, keep = c.off, c.off+half
			}
			rd.exchange(c.rank^c.d, c.first(span{result, give, give + half}), span{result, keep, keep + half}, true)
			rd.fresh, c.fresh = c.fresh, false
			c.off, c.cnt, c.d = keep, half, c.d/2
			return true
		case rhdDouble:
			if c.d >= c.pow2 {
				c.stage = rhdUnfold
				continue
			}
			other := c.off + c.cnt
			if c.rank&c.d != 0 {
				other = c.off - c.cnt
			}
			rd.exchange(c.rank^c.d, span{result, c.off, c.off + c.cnt}, span{result, other, other + c.cnt}, false)
			c.off, c.cnt, c.d = min(c.off, other), 2*c.cnt, 2*c.d
			return true
		case rhdUnfold:
			c.stage = rhdDone
			if c.rank < c.rem {
				rd.sendTo, rd.send = c.rank+c.pow2, whole
				return true
			}
		default:
			return false
		}
	}
}

// first is s itself, or its range of the input while the result is
// untouched.
func (c *rhdCursor) first(s span) span {
	if c.fresh {
		return s.untouched()
	}
	return s
}
