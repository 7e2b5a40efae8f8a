// Package allreduce implements the gradient-synchronization
// collectives of swCaffe (paper Sec. V-A): the ring and binomial-tree
// baselines, the MPICH recursive-halving/recursive-doubling
// all-reduce, and the paper's topology-aware improvement, which is the
// same algorithm run under a round-robin rank-to-supernode mapping so
// that the heavy early rounds stay inside supernodes. It also provides
// the closed-form α-β-γ cost functions (Eqns. 2–6) that the paper uses
// to justify the redesign.
//
// # One description, two interpreters
//
// Each algorithm is written once, as a schedule cursor (cursor.go,
// hierarchical.go): a backend-free value that yields a rank's rounds as
// data. Two interpreters (interp.go) execute the rounds — a blocking
// loop over simnet.Node and a resumable one over des.Rank — so the two
// backends cannot disagree on a message, a range, an association order
// or a clock addition; testdata/collectives.golden pins all of them.
// The blocking one lands each payload as it arrives; the resumable one
// logs where each goes, and its DESRun lands the log in tiles after the
// run (replay.go), so the payload has two independent implementations,
// which TestReplayMatchesInline holds to the same bits.
//
// # Payload ownership
//
// Send and SendRecv pass the payload slice itself, on both backends; no
// message is copied on the way and no cursor stages one. A range the
// rank has not written yet goes from the input, one it has from the
// result; a call in place has one vector for both, so every send is a
// range of the vector being reduced. One rule makes that safe, and
// every cursor is written to it:
//
//	A sent slice belongs to the receiver until the sender next hears
//	from that peer, directly or through a chain of messages begun
//	after the peer took the slice.
//
// "Hears" means a message whose history includes the peer taking the
// slice: one the peer posted afterwards, or one posted by a rank that
// had itself heard so. The other half of the same SendRecv does not
// count, because both sides post before either receives. Until then the
// sender does not write the slice. The receiver only reads it, and is
// done with it before it posts anything further. Ranks are sequential,
// so on the goroutine backend the peer's reads happen-before its next
// post, each hop of the chain happens-before the next, and the last
// happens-before the sender's receive; on the DES backend the same
// order is program order, and the log lands the payload in it. The
// schedule walk of the property test checks the rule on every generated
// schedule, with vector clocks.
//
// What the cursors emit under the rule: a finished chunk is never
// written again in the run; recursive halving/doubling sends the
// halves of its working vector in place, because the half it gives away
// at distance d is next written by the doubling exchange with the same
// peer; a rank folded out of RHD's power-of-two core, and a member
// shipping a chunk to its owner in the hierarchical reduce-scatter, send
// a range that is next written by what the very peer that took it sends
// back (the unfold, the allgather); and the ring's reduce-scatter sends
// its partial chunks in place although a ring rank never hears from the
// neighbour it sends to, because what next writes the chunk is the
// finished chunk coming back around the ring, which descends from the
// neighbour's reduce of that message.
//
// # The one-shot rule
//
// A call reads its input and writes its result, and the cursor names
// which of the two each range comes from: the first touch of a result
// range — a load, a copy received over it, or a fresh reduce, which
// writes input + payload — reads the input, and every later read is of
// the result. A range is read from the input only while the result has
// not written it, so the input is never needed again once it has, and
// nothing copies it up front. Two shapes load the input whole instead:
// a flat-RHD core rank whose vector needs a pad, as its halves cross the
// input's end (the load zeroes the pad), and a lone rank, which has no
// other write. In place a load is onto itself, and only zeroes the pad.
// The schedule walk of the property test checks the rule too, element
// by element.
//
// # Result lifetime
//
// A schedule reduces the vector it is given where it lies (Schedule.Run,
// Schedule.RunDES): the input is the result, the caller's vector, as
// long-lived as the caller makes it. Only the one-shot Algorithm forms
// (Ring, BinomialTree, RecursiveHalvingDoubling, Hierarchical) leave
// their input alone and reduce it into memory taken from the rank's
// Scratch, which the first touches fill, under the rule that covers
// everything a run hands out — the RunGather slice and the arena
// vectors in it belong to the cluster and are valid until its next run;
// a caller keeping one across runs copies it. An arena vector comes back
// holding the last run's values, and the one-shot rule is why no call
// reads them. A failed run returns only after every rank has stopped,
// leaving an in-place vector partly reduced and a failed run's arenas
// dropped with its state; a caller that retries refills its vectors.
package allreduce

import (
	"fmt"

	"swcaffe/internal/des"
	"swcaffe/internal/simnet"
)

// Algorithm is a collective all-reduce body in its one-shot form: every
// rank calls it with its local vector; on return every rank holds the
// elementwise sum over all ranks. Implementations must not modify the
// input slice. The built-in ones return cluster-owned memory, valid
// until the cluster's next run (see "Result lifetime" above).
type Algorithm func(n *simnet.Node, data []float32) []float32

// Algorithm names for harness output.
const (
	NameRing         = "ring"
	NameBinomial     = "binomial-tree"
	NameRHD          = "recursive-halving-doubling"
	NameHierarchical = "hierarchical"
)

// Schedule identifies one built-in all-reduce description — a cursor
// (see cursor.go) — and runs it on either backend.
type Schedule uint8

const (
	schedRing Schedule = iota
	schedBinomial
	schedRHD
	schedHierarchical
)

// schedules is the registry: a schedule's name and its one-shot
// blocking form.
var schedules = [...]struct {
	name string
	alg  Algorithm
}{
	schedRing:         {NameRing, Ring},
	schedBinomial:     {NameBinomial, BinomialTree},
	schedRHD:          {NameRHD, RecursiveHalvingDoubling},
	schedHierarchical: {NameHierarchical, Hierarchical},
}

// Names lists the registered all-reduce algorithms — the spellings
// ByName accepts (CLIs print this when rejecting an unknown name).
func Names() []string {
	names := make([]string, len(schedules))
	for s := range schedules {
		names[s] = schedules[s].name
	}
	return names
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

// ScheduleByName returns a named schedule.
func ScheduleByName(name string) (Schedule, error) {
	canon := Canonical(name)
	for s := range schedules {
		if schedules[s].name == canon {
			return Schedule(s), nil
		}
	}
	return 0, fmt.Errorf("allreduce: unknown algorithm %q (valid: %v)", name, Names())
}

// ByName returns a named algorithm.
func ByName(name string) (Algorithm, error) {
	s, err := ScheduleByName(name)
	if err != nil {
		return nil, err
	}
	return schedules[s].alg, nil
}

// Name returns the schedule's registered name.
func (s Schedule) Name() string { return schedules[s].name }

// Run reduces data in place on one rank of the goroutine backend and
// returns it: data is the [lo, lo+len(data)) segment of a total-element
// vector, and on return holds the elementwise sum over all ranks. The
// element-uniform schedules (binomial tree, RHD) ignore lo and total.
//
// The ring and the hierarchical schedule reduce chunk c of their
// partition of the whole vector (ChunkBounds into p chunks for the
// ring, into K = topology.MinGroupSize for the hierarchical schedule)
// in an order that depends on c, so a segment's bounds must lie on the
// partition — Run panics otherwise — and the call executes exactly the
// full schedule's steps for the chunks the segment covers: reducing a
// vector segment by segment is bit-identical to reducing it at once,
// which is what lets the collective engine flush it in buckets.
//
// Flat RHD halves exactly, so a rank of its power-of-two core works the
// vector padded to a multiple of that power — fewer than p elements
// past len(data), inside data's own capacity: they are zeroed and
// overwritten, and a vector without the capacity panics.
//
// A non-nil clk receives the rank's phase-entry clocks of the
// hierarchical schedule, the only one with phases; nil records nothing.
func (s Schedule) Run(n *simnet.Node, data []float32, lo, total int, clk *PhaseClocks) []float32 {
	c := newCursor(s, n.Rank, n.P(), n.Supernodes(), lo, len(data), total)
	return runBlocking(n, c, newFrame(data, data, c.resultLen(len(data)), clk))
}

// RunDES is Run on the discrete-event backend, for a body of
// run.Gather: k fires with r and data once the rank's schedule
// completes, and data holds the sum once Gather returns (the run lands
// the payload after the schedules, see replay.go).
func (s Schedule) RunDES(run *DESRun, r *des.Rank, data []float32, lo, total int, clk *PhaseClocks, k func(*des.Rank, []float32)) {
	c := newCursor(s, r.Rank, r.P(), r.Supernodes(), lo, len(data), total)
	st := &run.calls[r.Rank]
	st.r, st.c, st.f, st.k = r, c, newFrame(data, data, c.resultLen(len(data)), clk), k
	st.step()
}

// oneShot is the boundary of the Algorithm forms: it reduces data into
// a result vector taken from the rank's arena, so the input is only
// read and the result belongs to the cluster. Nothing copies data
// first: the cursor's first touch of each result range reads the input
// (see round). It records no phase clocks.
func (s Schedule) oneShot(n *simnet.Node, data []float32, lo, total int) []float32 {
	c := newCursor(s, n.Rank, n.P(), n.Supernodes(), lo, len(data), total)
	resLen := c.resultLen(len(data))
	return runBlocking(n, c, newFrame(data, n.Scratch(resLen), resLen, nil))
}

// Ring is the bandwidth-optimal ring all-reduce (paper ref [15]):
// p-1 reduce-scatter steps plus p-1 allgather steps moving n/p chunks
// around a logical ring. Its latency term is 2(p-1)α, which the paper
// rejects for the high-latency Sunway network.
func Ring(n *simnet.Node, data []float32) []float32 {
	return schedRing.oneShot(n, data, 0, len(data))
}

// ChunkBounds exposes the chunk partition of an n-element vector into
// p chunks: chunk i spans [b[i], b[i+1]). It is the ring's partition
// over p ranks and the hierarchical schedule's over its K
// leader-owned chunks (see hierCursor). The collective engine snaps
// ring and hierarchical bucket boundaries onto these bounds so each
// bucket is a whole number of chunks (see Schedule.Run).
func ChunkBounds(n, p int) []int {
	b := make([]int, p+1)
	for i := 0; i <= p; i++ {
		b[i] = i * n / p
	}
	return b
}

// BinomialTree reduces to rank 0 up a binomial tree and broadcasts the
// result back down: 2·log p rounds each moving the full vector. This
// is the naive MPI_Reduce + MPI_Bcast composition.
func BinomialTree(n *simnet.Node, data []float32) []float32 {
	return schedBinomial.oneShot(n, data, 0, len(data))
}

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
	return schedRHD.oneShot(n, data, 0, len(data))
}

// Hierarchical is the topology-hierarchical all-reduce (see
// hierarchical.go). The supernode membership comes from the cluster's
// mapping (see topology.Members), so the schedule is topology-correct
// under both the adjacent and the round-robin numbering without any
// renumbering trick.
func Hierarchical(n *simnet.Node, data []float32) []float32 {
	return schedHierarchical.oneShot(n, data, 0, len(data))
}
