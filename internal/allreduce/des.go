package allreduce

import (
	"fmt"
	"sync/atomic"

	"swcaffe/internal/des"
)

// Discrete-event forms of the collective bodies: continuation-passing
// transliterations of the blocking algorithms, for the single-threaded
// internal/des backend. Every arithmetic operation, accumulation order,
// message, payload range and ChargeReduce call site matches the
// blocking body — the collectives are Kahn process networks (per-link
// FIFOs, blocking receives, data-independent control flow), so any
// schedule produces the same floats, and the goroutine backend stays
// the bit-identity oracle these forms are tested against hex-exactly.
// Payloads follow the package's ownership rule exactly as the blocking
// bodies do: the same ranges go by reference, the same one is staged in
// scratch.
//
// Control-flow convention: a rank's progress through one call lives in
// a small state struct; a Recv/SendRecv is always in tail position and
// resumes a method of that struct. Each phase builds its continuation
// once (a method value) and reuses it every round, so a call allocates
// a constant number of objects however many rounds it runs; rounds that
// skip communication are a loop, not a recursion. The final
// continuation k receives the finished vector.

// AlgorithmDES is the DES counterpart of Algorithm: every rank calls
// it with its local vector, and k fires with the elementwise sum once
// the rank's schedule completes. Implementations must not modify the
// input slice.
type AlgorithmDES func(r *des.Rank, data []float32, k func([]float32))

// ByNameDES returns the DES form of a named built-in algorithm.
func ByNameDES(name string) (AlgorithmDES, error) {
	switch Canonical(name) {
	case NameRing:
		return RingDES, nil
	case NameBinomial:
		return BinomialTreeDES, nil
	case NameRHD:
		return RecursiveHalvingDoublingDES, nil
	case NameHierarchical:
		return HierarchicalDES, nil
	default:
		return nil, fmt.Errorf("allreduce: unknown algorithm %q (valid: %v)", name, Names())
	}
}

// RingDES is the DES form of Ring.
func RingDES(r *des.Rank, data []float32, k func([]float32)) {
	RingSegmentDES(r, data, 0, len(data), k)
}

// RingSegmentDES is the DES form of RingSegment: the full ring's
// per-chunk rotation schedule restricted to the segment, reduced in
// the identical association order.
func RingSegmentDES(r *des.Rank, data []float32, lo, total int, k func([]float32)) {
	p := r.P()
	out := append([]float32(nil), data...)
	if p == 1 {
		k(out)
		return
	}
	st := &ringDES{r: r, out: out, k: k, seg: newSegment(lo, len(data), total, p),
		next: (r.Rank + 1) % p, prev: (r.Rank - 1 + p) % p}
	st.onReduce, st.onGather = st.reduced, st.gathered
	st.reduceScatter()
}

// ringDES is one rank's progress through RingSegmentDES: s is the step
// within the current phase, recvIdx the chunk its pending Recv brings.
type ringDES struct {
	r          *des.Rank
	out        []float32
	k          func([]float32)
	seg        segment
	next, prev int
	s, recvIdx int

	onReduce, onGather func([]float32)
}

func (st *ringDES) reduceScatter() {
	r, p := st.r, st.r.P()
	for ; st.s < p-1; st.s++ {
		sendIdx := ((r.Rank-st.s)%p + p) % p
		st.recvIdx = ((r.Rank-st.s-1)%p + p) % p
		if st.seg.has(sendIdx) {
			slo, shi := st.seg.chunk(sendIdx)
			chunk := r.Scratch(shi - slo)
			copy(chunk, st.out[slo:shi])
			r.Send(st.next, chunk)
		}
		if st.seg.has(st.recvIdx) {
			r.Recv(st.prev, st.onReduce)
			return
		}
	}
	st.s = 0
	st.allgather()
}

func (st *ringDES) reduced(in []float32) {
	rlo, _ := st.seg.chunk(st.recvIdx)
	for i, v := range in {
		st.out[rlo+i] += v
	}
	st.r.ChargeReduce(len(in))
	st.s++
	st.reduceScatter()
}

func (st *ringDES) allgather() {
	r, p := st.r, st.r.P()
	for ; st.s < p-1; st.s++ {
		sendIdx := ((r.Rank+1-st.s)%p + p) % p
		st.recvIdx = ((r.Rank-st.s)%p + p) % p
		if st.seg.has(sendIdx) {
			slo, shi := st.seg.chunk(sendIdx)
			r.Send(st.next, st.out[slo:shi])
		}
		if st.seg.has(st.recvIdx) {
			r.Recv(st.prev, st.onGather)
			return
		}
	}
	st.k(st.out)
}

func (st *ringDES) gathered(in []float32) {
	rlo, _ := st.seg.chunk(st.recvIdx)
	copy(st.out[rlo:], in)
	st.s++
	st.allgather()
}

// BinomialTreeDES is the DES form of BinomialTree.
func BinomialTreeDES(r *des.Rank, data []float32, k func([]float32)) {
	st := &binomialDES{r: r, out: append([]float32(nil), data...), k: k, mask: 1}
	st.onReduce = st.reduced
	st.reduce()
}

// binomialDES is one rank's progress through BinomialTreeDES: mask is
// the tree level its pending Recv belongs to.
type binomialDES struct {
	r    *des.Rank
	out  []float32
	k    func([]float32)
	mask int

	onReduce func([]float32)
}

// reduce is the binomial reduce to root 0; a rank that ships to its
// parent goes straight to the broadcast, as the blocking form does.
func (st *binomialDES) reduce() {
	r, p := st.r, st.r.P()
	for ; st.mask < p; st.mask <<= 1 {
		if r.Rank&st.mask != 0 {
			r.Send(r.Rank-st.mask, st.out)
			break
		}
		if r.Rank+st.mask < p {
			r.Recv(r.Rank+st.mask, st.onReduce)
			return
		}
	}
	st.bcast()
}

func (st *binomialDES) reduced(in []float32) {
	for i, v := range in {
		st.out[i] += v
	}
	st.r.ChargeReduce(len(in))
	st.mask <<= 1
	st.reduce()
}

// bcast climbs to the first set bit (the parent link), then replays
// the down-send ladder from there.
func (st *binomialDES) bcast() {
	r, p := st.r, st.r.P()
	for st.mask = 1; st.mask < p; st.mask <<= 1 {
		if r.Rank&st.mask != 0 {
			r.Recv(r.Rank-st.mask, st.received)
			return
		}
	}
	st.downSend()
}

func (st *binomialDES) received(res []float32) {
	copy(st.out, res)
	st.downSend()
}

// downSend contains no receives, so it runs inline.
func (st *binomialDES) downSend() {
	r, p := st.r, st.r.P()
	for mask := st.mask >> 1; mask > 0; mask >>= 1 {
		if r.Rank+mask < p && r.Rank&(mask-1) == 0 && r.Rank&mask == 0 {
			r.Send(r.Rank+mask, st.out)
		}
	}
	st.k(st.out)
}

// RecursiveHalvingDoublingDES is the DES form of
// RecursiveHalvingDoubling. Like the blocking body it runs on world
// and group views alike — the hierarchical schedule's leader phase
// calls it on an InGroup view.
func RecursiveHalvingDoublingDES(r *des.Rank, data []float32, k func([]float32)) {
	p := r.P()
	if p == 1 {
		k(append([]float32(nil), data...))
		return
	}
	pow2, rem := foldShape(p)
	rank := r.Rank

	// Fold: excess ranks ship their vector down and wait for the final
	// result.
	if rank >= pow2 {
		r.Send(rank-pow2, data)
		r.Recv(rank-pow2, func(res []float32) { k(append([]float32(nil), res...)) })
		return
	}

	work := make([]float32, padTo(len(data), pow2))
	st := &rhdDES{r: r, work: work, out: work[:len(data):len(data)], k: k,
		pow2: pow2, rem: rem, d: pow2 / 2, cnt: len(work)}
	copy(st.out, data)
	st.onHalve, st.onDouble = st.halved, st.doubled
	if rank < rem {
		r.Recv(rank+pow2, st.folded)
		return
	}
	st.halve()
}

// rhdDES is one core rank's progress through
// RecursiveHalvingDoublingDES: [off, off+cnt) is the span it owns, d
// the distance of the exchange in flight, other where that exchange's
// payload lands (the kept half while halving, the peer's half while
// doubling).
type rhdDES struct {
	r         *des.Rank
	work, out []float32
	k         func([]float32)
	pow2, rem int

	d, off, cnt, other int

	onHalve, onDouble func([]float32)
}

func (st *rhdDES) folded(in []float32) {
	for i, v := range in {
		st.out[i] += v
	}
	st.r.ChargeReduce(len(in))
	st.halve()
}

// halve posts the reduce-scatter exchange at distance d, or moves on to
// the allgather once d has run out.
func (st *rhdDES) halve() {
	if st.d < 1 {
		st.d = 1
		st.double()
		return
	}
	half := st.cnt / 2
	sendOff := st.off + half
	st.other = st.off
	if st.r.Rank&st.d != 0 {
		sendOff, st.other = st.off, st.off+half
	}
	st.r.SendRecv(st.r.Rank^st.d, st.work[sendOff:sendOff+half], st.onHalve)
}

func (st *rhdDES) halved(in []float32) {
	for i, v := range in {
		st.work[st.other+i] += v
	}
	st.off, st.cnt = st.other, st.cnt/2
	st.r.ChargeReduce(st.cnt)
	st.d /= 2
	st.halve()
}

// double posts the allgather exchange at distance d, or finishes once
// the span is whole again.
func (st *rhdDES) double() {
	if st.d >= st.pow2 {
		if st.r.Rank < st.rem {
			st.r.Send(st.r.Rank+st.pow2, st.out)
		}
		st.k(st.out)
		return
	}
	st.other = st.off + st.cnt
	if st.r.Rank&st.d != 0 {
		st.other = st.off - st.cnt
	}
	st.r.SendRecv(st.r.Rank^st.d, st.work[st.off:st.off+st.cnt], st.onDouble)
}

func (st *rhdDES) doubled(in []float32) {
	copy(st.work[st.other:st.other+st.cnt], in)
	if st.other < st.off {
		st.off = st.other
	}
	st.cnt *= 2
	st.d *= 2
	st.double()
}

// HierarchicalDES is the DES form of Hierarchical.
func HierarchicalDES(r *des.Rank, data []float32, k func([]float32)) {
	HierarchicalSegmentDES(r, data, 0, len(data), k)
}

// HierarchicalSegmentDES is the DES form of HierarchicalSegment: the
// same three-phase schedule (intra-supernode tournament
// reduce-scatter, leader RHD over InGroup views, intra-supernode
// tournament allgather) with the identical chunk partition and
// association order, firing the DES phase hook at each boundary.
func HierarchicalSegmentDES(r *des.Rank, data []float32, lo, total int, k func([]float32)) {
	hierPhaseDES(r, HierIntraReduceScatter)
	out := append([]float32(nil), data...)
	if r.P() == 1 {
		k(out)
		return
	}
	st := &hierDES{r: r, data: data, out: out, k: k,
		h: newHierPlan(r.Supernodes(), r.Rank, lo, len(data), total)}
	st.onA, st.onC = st.reducedA, st.gatheredC
	st.phaseA()
}

// hierDES is one rank's progress through HierarchicalSegmentDES: round
// is the tournament round of the current intra phase, pt the partner of
// the exchange in flight.
type hierDES struct {
	r         *des.Rank
	data, out []float32
	k         func([]float32)
	h         hierPlan
	round, pt int

	onA, onC func([]float32)
}

// phaseA is the intra-supernode reduce-scatter tournament: the rank's
// untouched input for the partner's chunk goes by reference, owner j
// accumulates in tournament-round order — as the blocking form.
func (st *hierDES) phaseA() {
	for ; st.round < st.h.rounds; st.round++ {
		if st.pt = st.h.partner(st.round); st.pt < 0 {
			continue
		}
		var send []float32
		if st.h.live(st.pt) {
			plo, phi := st.h.seg.chunk(st.pt)
			send = st.data[plo:phi]
		}
		st.r.SendRecv(st.h.group[st.pt], send, st.onA)
		return
	}
	st.phaseB()
}

func (st *hierDES) reducedA(in []float32) {
	if st.h.live(st.h.j) {
		clo, _ := st.h.seg.chunk(st.h.j)
		for x, v := range in {
			st.out[clo+x] += v
		}
		st.r.ChargeReduce(len(in))
	}
	st.round++
	st.phaseA()
}

// phaseB is the RHD among chunk j's leaders on an InGroup view.
func (st *hierDES) phaseB() {
	hierPhaseDES(st.r, HierLeaderRHD)
	if leaders := st.h.leaders(); leaders != nil {
		clo, chi := st.h.seg.chunk(st.h.j)
		RecursiveHalvingDoublingDES(st.r.InGroup(leaders), st.out[clo:chi], st.reducedB)
		return
	}
	st.startC()
}

func (st *hierDES) reducedB(red []float32) {
	clo, _ := st.h.seg.chunk(st.h.j)
	copy(st.out[clo:], red)
	st.startC()
}

func (st *hierDES) startC() {
	hierPhaseDES(st.r, HierAllgather)
	st.round = 0
	st.phaseC()
}

// phaseC is the intra-supernode allgather tournament; finished chunks
// are sent by reference, receivers copy out — as the blocking form.
func (st *hierDES) phaseC() {
	for ; st.round < st.h.rounds; st.round++ {
		if st.pt = st.h.partner(st.round); st.pt < 0 {
			continue
		}
		var send []float32
		if st.h.live(st.h.j) {
			clo, chi := st.h.seg.chunk(st.h.j)
			send = st.out[clo:chi]
		}
		st.r.SendRecv(st.h.group[st.pt], send, st.onC)
		return
	}
	st.k(st.out)
}

func (st *hierDES) gatheredC(in []float32) {
	if st.h.live(st.pt) {
		plo, _ := st.h.seg.chunk(st.pt)
		copy(st.out[plo:], in)
	}
	st.round++
	st.phaseC()
}

// hierPhaseHookDES is the DES twin of hierPhaseHook: it fires on every
// rank at each phase boundary of HierarchicalSegmentDES. Atomic for
// symmetry with the goroutine hook (tests install both together).
var hierPhaseHookDES atomic.Pointer[func(r *des.Rank, phase HierPhase)]

// SetHierPhaseHookDES installs (or, with nil, removes) the DES
// hierarchical phase hook and returns the previous one.
func SetHierPhaseHookDES(h func(r *des.Rank, phase HierPhase)) (prev func(r *des.Rank, phase HierPhase)) {
	var p *func(r *des.Rank, phase HierPhase)
	if h != nil {
		p = &h
	}
	if old := hierPhaseHookDES.Swap(p); old != nil {
		return *old
	}
	return nil
}

func hierPhaseDES(r *des.Rank, phase HierPhase) {
	if h := hierPhaseHookDES.Load(); h != nil {
		(*h)(r, phase)
	}
}
