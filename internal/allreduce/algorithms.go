// Package allreduce implements the gradient-synchronization
// collectives of swCaffe (paper Sec. V-A): the ring and binomial-tree
// baselines, the MPICH recursive-halving/recursive-doubling
// all-reduce, and the paper's topology-aware improvement, which is the
// same algorithm run under a round-robin rank-to-supernode mapping so
// that the heavy early rounds stay inside supernodes. It also provides
// the closed-form α-β-γ cost functions (Eqns. 2–6) that the paper uses
// to justify the redesign, and the gradient-packing utilities.
//
// # Payload ownership
//
// Send and SendRecv pass the payload slice itself, on both backends; no
// message is copied on the way. One rule makes that safe, and every
// body here — blocking or DES — is written to it:
//
//	A sent slice belongs to the receiver until the sender next hears
//	from that peer.
//
// "Next hears" means a message the peer posted after it took the slice:
// the other half of the same SendRecv does not count, because both
// sides post before either receives. Until then the sender does not
// write the slice. The receiver only reads it, and is done with it
// before it posts anything further to the sender. Ranks are sequential,
// so on the goroutine backend the peer's reads happen-before its next
// post, which happens-before the sender's receive; on the DES backend
// the same order is program order.
//
// What the bodies do under the rule: a range that is never written
// again in the run (the caller's input, a finished chunk) is sent as
// is; recursive halving/doubling sends the halves of its working
// vector in place, because the half it gives away at distance d is
// next written by the doubling exchange with the same peer; only the
// ring's reduce-scatter stages a copy, in the rank's Scratch, because a
// ring rank never hears from the neighbour it sends to. A result vector
// is always fresh — it outlives the run, scratch does not.
package allreduce

import (
	"fmt"

	"swcaffe/internal/simnet"
)

// Algorithm is a collective all-reduce body: every rank calls it with
// its local vector; on return every rank holds the elementwise sum
// over all ranks. Implementations must not modify the input slice.
type Algorithm func(n *simnet.Node, data []float32) []float32

// Algorithm names for harness output.
const (
	NameRing         = "ring"
	NameBinomial     = "binomial-tree"
	NameRHD          = "recursive-halving-doubling"
	NameHierarchical = "hierarchical"
)

// Names lists the registered all-reduce algorithms — the spellings
// ByName accepts (CLIs print this when rejecting an unknown name).
func Names() []string {
	return []string{NameRing, NameBinomial, NameRHD, NameHierarchical}
}

// Canonical resolves CLI shorthand to a registered algorithm name
// ("hier" → "hierarchical", "rhd" → the full MPICH spelling); other
// strings, including the empty default, pass through unchanged.
func Canonical(name string) string {
	switch name {
	case "hier":
		return NameHierarchical
	case "rhd":
		return NameRHD
	}
	return name
}

// ByName returns a named algorithm.
func ByName(name string) (Algorithm, error) {
	switch Canonical(name) {
	case NameRing:
		return Ring, nil
	case NameBinomial:
		return BinomialTree, nil
	case NameRHD:
		return RecursiveHalvingDoubling, nil
	case NameHierarchical:
		return Hierarchical, nil
	default:
		return nil, fmt.Errorf("allreduce: unknown algorithm %q (valid: %v)", name, Names())
	}
}

// --- ring ---------------------------------------------------------------

// Ring is the bandwidth-optimal ring all-reduce (paper ref [15]):
// p-1 reduce-scatter steps plus p-1 allgather steps moving n/p chunks
// around a logical ring. Its latency term is 2(p-1)α, which the paper
// rejects for the high-latency Sunway network.
func Ring(n *simnet.Node, data []float32) []float32 {
	return RingSegment(n, data, 0, len(data))
}

// RingSegment runs the ring all-reduce restricted to the chunks of a
// larger packed vector that the segment [lo, lo+len(data)) covers.
// total is the packed vector's full length; the segment's bounds must
// both lie on ChunkBounds(total, p) (the engine's chunk-aligned
// bucketing guarantees this — RingSegment panics otherwise).
//
// Each chunk c of the full ring is reduced by a rotation that folds
// rank values in the fixed order c, c+1, ..., c-1 (mod p) — an order
// that depends on the chunk index, which is why the plain ring is not
// element-uniform and naive bucketing breaks bit-identity. RingSegment
// executes exactly the full ring's per-chunk schedule (step s: send
// chunk (r-s) mod p, receive and reduce chunk (r-s-1) mod p), skipping
// the steps whose chunk falls outside the segment. Every element is
// therefore reduced with precisely the association order the one-shot
// Ring over the whole packed vector would use, so flushing a gradient
// bucket per segment is bit-identical to the barrier ring — the
// primitive behind the collective engine's ring overlap. With
// lo=0, total=len(data) the schedule degenerates to the classic ring.
func RingSegment(n *simnet.Node, data []float32, lo, total int) []float32 {
	p := n.P()
	out := append([]float32(nil), data...)
	if p == 1 {
		return out
	}
	seg := newSegment(lo, len(data), total, p)

	r := n.Rank
	next := (r + 1) % p
	prev := (r - 1 + p) % p

	// Reduce-scatter: in step s, send chunk (r-s) to the next rank and
	// receive + reduce chunk (r-s-1) from the previous one — when the
	// chunk belongs to this segment. The partial chunk is rewritten by
	// the allgather and this rank never hears from next, so it is sent
	// as a copy staged in scratch.
	for s := 0; s < p-1; s++ {
		sendIdx := ((r-s)%p + p) % p
		recvIdx := ((r-s-1)%p + p) % p
		if seg.has(sendIdx) {
			slo, shi := seg.chunk(sendIdx)
			chunk := n.Scratch(shi - slo)
			copy(chunk, out[slo:shi])
			n.Send(next, chunk)
		}
		if seg.has(recvIdx) {
			in := n.Recv(prev)
			rlo, _ := seg.chunk(recvIdx)
			for i, v := range in {
				out[rlo+i] += v
			}
			n.ChargeReduce(len(in))
		}
	}
	// Allgather: circulate the finished chunks around the ring. A
	// finished chunk is never written again, so it is sent as is.
	for s := 0; s < p-1; s++ {
		sendIdx := ((r+1-s)%p + p) % p
		recvIdx := ((r-s)%p + p) % p
		if seg.has(sendIdx) {
			slo, shi := seg.chunk(sendIdx)
			n.Send(next, out[slo:shi])
		}
		if seg.has(recvIdx) {
			in := n.Recv(prev)
			rlo, _ := seg.chunk(recvIdx)
			copy(out[rlo:], in)
		}
	}
	return out
}

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

// chunk returns chunk c's bounds relative to the segment's data.
func (s segment) chunk(c int) (lo, hi int) {
	return c*s.total/s.k - s.lo, (c+1)*s.total/s.k - s.lo
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

// ChunkBounds exposes the ring's chunk partition of an n-element
// vector over p ranks: chunk i spans [b[i], b[i+1]). The collective
// engine snaps ring bucket boundaries onto these bounds so each bucket
// is a whole number of ring chunks (see RingSegment).
func ChunkBounds(n, p int) []int {
	b := make([]int, p+1)
	for i := 0; i <= p; i++ {
		b[i] = i * n / p
	}
	return b
}

// --- binomial tree -------------------------------------------------------

// BinomialTree reduces to rank 0 up a binomial tree and broadcasts the
// result back down: 2·log p rounds each moving the full vector. This
// is the naive MPI_Reduce + MPI_Bcast composition.
func BinomialTree(n *simnet.Node, data []float32) []float32 {
	p := n.P()
	out := append([]float32(nil), data...)
	r := n.Rank
	// Reduce phase (MPICH binomial reduce to root 0).
	for mask := 1; mask < p; mask <<= 1 {
		if r&mask != 0 {
			n.Send(r-mask, out)
			break
		}
		if r+mask < p {
			in := n.Recv(r + mask)
			for i, v := range in {
				out[i] += v
			}
			n.ChargeReduce(len(in))
		}
	}
	// Broadcast phase (MPICH binomial bcast from root 0).
	mask := 1
	for mask < p {
		if r&mask != 0 {
			res := n.Recv(r - mask)
			copy(out, res)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if r+mask < p && r&(mask-1) == 0 && r&mask == 0 {
			n.Send(r+mask, out)
		}
		mask >>= 1
	}
	return out
}

// --- recursive halving / doubling ----------------------------------------

// RecursiveHalvingDoubling is the Rabenseifner all-reduce of MPICH
// (paper ref [14]) that swCaffe adopts: a reduce-scatter by recursive
// halving followed by an allgather by recursive doubling, giving a
// 2·log p latency term and the bandwidth-optimal 2n(p-1)/p volume.
// Non-power-of-two sizes fold the excess ranks onto the power-of-two
// core first (and unfold at the end). The topology awareness of the
// paper's improved version comes entirely from the cluster's rank
// mapping: under topology.RoundRobinMapping the large early halving
// exchanges (distance pow2/2, ..., p/q) stay inside one supernode.
func RecursiveHalvingDoubling(n *simnet.Node, data []float32) []float32 {
	p := n.P()
	if p == 1 {
		return append([]float32(nil), data...)
	}
	pow2, rem := foldShape(p)
	r := n.Rank

	// Fold: ranks >= pow2 ship their vector to (rank - pow2) and wait
	// for the final result. The input is never written, so it goes as
	// is.
	if r >= pow2 {
		n.Send(r-pow2, data)
		return append([]float32(nil), n.Recv(r-pow2)...)
	}

	// The working vector is the result vector, padded to a multiple of
	// pow2 so halving is exact (the pad stays zero and is cut off).
	work := make([]float32, padTo(len(data), pow2))
	out := work[:len(data):len(data)]
	copy(out, data)
	if r < rem {
		in := n.Recv(r + pow2)
		for i, v := range in {
			out[i] += v
		}
		n.ChargeReduce(len(in))
	}

	// Reduce-scatter by recursive halving: exchange with peers at
	// distance pow2/2, pow2/4, ..., 1, halving the live span each time.
	// The half given away is sent in place: it is next written by the
	// doubling exchange with the same peer.
	off, cnt := 0, len(work)
	for d := pow2 / 2; d >= 1; d /= 2 {
		half := cnt / 2
		sendOff, keepOff := off+half, off
		if r&d != 0 {
			sendOff, keepOff = off, off+half
		}
		in := n.SendRecv(r^d, work[sendOff:sendOff+half])
		for i, v := range in {
			work[keepOff+i] += v
		}
		n.ChargeReduce(half)
		off, cnt = keepOff, half
	}

	// Allgather by recursive doubling: undo the halving, nearest peer
	// first. Entering the step at distance d the rank owns [off,
	// off+cnt), the span it kept there; the peer owns the other half of
	// the parent span. The owned span is finished, so it is sent in
	// place.
	for d := 1; d < pow2; d *= 2 {
		otherOff := off + cnt
		if r&d != 0 {
			otherOff = off - cnt
		}
		in := n.SendRecv(r^d, work[off:off+cnt])
		copy(work[otherOff:otherOff+cnt], in)
		if otherOff < off {
			off = otherOff
		}
		cnt *= 2
	}

	// Unfold: ship the finished result to the folded partner.
	if r < rem {
		n.Send(r+pow2, out)
	}
	return out
}

// foldShape splits p into the largest power of two below or at it and
// the remainder that folds onto that core.
func foldShape(p int) (pow2, rem int) {
	pow2 = 1
	for pow2*2 <= p {
		pow2 *= 2
	}
	return pow2, p - pow2
}

// padTo rounds n up to a multiple of m.
func padTo(n, m int) int { return (n + m - 1) / m * m }
