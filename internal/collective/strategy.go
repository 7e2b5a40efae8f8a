// Package collective implements the unified gradient-synchronization
// engine of the distributed trainer (paper Sec. V-A): bucket
// construction over the packed gradient vector, flush ordering during
// backward, per-algorithm bucketing strategies, the plan selector
// (algorithm × bucket cap), and the modeled-makespan composition of
// the overlapped timeline. The trainer packs gradients and launches
// passes; the engine decides where the buckets fall, which collective
// schedule reduces each one bit-identically to the one-shot barrier,
// and what the overlap is worth on the modeled clock — so a new
// all-reduce variant plugs in as a Strategy instead of a trainer
// rewrite.
package collective

import (
	"fmt"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/des"
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// Strategy is the pluggable per-algorithm bucketing policy: it owns
// the boundary alignment a bucket must respect for the algorithm to
// stay bit-identical under bucketing, the collective schedule that
// reduces one bucket, and the analytic cost model the plan selector
// minimizes.
type Strategy interface {
	Name() string
	// Snap returns the largest admissible bucket boundary <= cut and
	// SnapUp the smallest admissible boundary >= cut (element indices
	// into the packed vector of length total over p ranks).
	// Element-uniform algorithms admit every boundary; the ring
	// admits only its chunk bounds, the hierarchical schedule only
	// its leader-chunk bounds. The engine prefers the upward
	// neighbor — it keeps the bucket ready at the layer that proposed
	// the cut — and falls back to the downward one.
	Snap(cut, total, p int) int
	SnapUp(cut, total, p int) int
	// Run executes the collective over seg, the [lo, lo+len(seg))
	// slice of the packed vector, on one simnet rank, and returns the
	// rank's result: the elementwise sum over all ranks — with the
	// same association order the algorithm would use on the whole
	// packed vector, so bucketed and barrier flushes agree bit for
	// bit. RunDES is the same collective on one rank of the event
	// backend, k firing with the result. The built-in strategies get
	// both from the one allreduce.Schedule they embed, which reduces
	// seg where it lies and returns it, padding inside seg's capacity
	// (see allreduce.Schedule.Run); a custom body leaves seg alone and
	// returns memory of its own.
	Run(n *simnet.Node, seg []float32, lo, total int) []float32
	RunDES(r *des.Rank, seg []float32, lo, total int, k func([]float32))
	// Cost prices the flush of the [lo, hi) bucket of a packed
	// float32 vector of total elements with the closed-form α-β-γ
	// model (paper Eqns. 2–6 plus allreduce.HierarchicalCost; see
	// allreduce.CostByName for how the selector uses it). The bucket's
	// position matters to strategies whose serial cost depends on
	// where it falls in their chunk partition: a hierarchical bucket
	// spanning few leader chunks concentrates its traffic on few
	// owners (allreduce.HierarchicalSegmentCost); element-uniform
	// algorithms price by size alone.
	Cost(net *topology.Network, p, lo, hi, total int, onCPE bool) allreduce.Cost
}

// uniform is the strategy of an element-uniform schedule (every
// element is reduced with the same cross-rank association order
// regardless of its position in the vector — recursive
// halving/doubling, binomial tree): buckets may cut anywhere.
type uniform struct {
	allreduce.Schedule
	cost allreduce.CostFunc
}

func (uniform) Snap(cut, _, _ int) int   { return cut }
func (uniform) SnapUp(cut, _, _ int) int { return cut }
func (u uniform) Cost(net *topology.Network, p, lo, hi, _ int, onCPE bool) allreduce.Cost {
	return u.cost(net, p, float64(hi-lo)*4, onCPE)
}

// custom wraps a caller-supplied body, by assumption element-uniform.
// A body is a blocking Go function over simnet.Node, not a schedule
// cursor, so only the goroutine backend can run it.
type custom struct {
	uniform
	name string
	alg  allreduce.Algorithm
}

func (c custom) Name() string { return c.name }
func (c custom) Run(n *simnet.Node, seg []float32, _, _ int) []float32 {
	return c.alg(n, seg)
}
func (custom) RunDES(*des.Rank, []float32, int, int, func([]float32)) {
	panic("collective: custom algorithm bodies have no DES form — run the goroutine backend")
}

// snapChunkDown returns the largest bound of the k-chunk partition of
// total elements that is <= cut; snapChunkUp the smallest >= cut.
// Bounds are floor(i*total/k), the partition both the ring (k = p)
// and the hierarchical schedule (k = MinGroupSize) bucket against.
func snapChunkDown(cut, total, k int) int {
	if total == 0 || k <= 1 {
		return cut
	}
	// Candidate index is ceil((cut+1)*k/total)-1, nudged down while it
	// still overshoots (integer floors are not exactly invertible).
	i := ((cut+1)*k + total - 1) / total
	if i > k {
		i = k
	}
	for i > 0 && i*total/k > cut {
		i--
	}
	return i * total / k
}

func snapChunkUp(cut, total, k int) int {
	if total == 0 || k <= 1 {
		return cut
	}
	i := cut * k / total
	for i < k && i*total/k < cut {
		i++
	}
	return i * total / k
}

// ringChunkAligned is the ring's strategy: the ring reduces chunk c
// with a rotation order that depends on c, so buckets must be whole
// runs of the global chunk partition and each bucket runs the full
// ring's schedule restricted to its chunks (allreduce.Schedule.Run).
type ringChunkAligned struct{ allreduce.Schedule }

func (ringChunkAligned) Snap(cut, total, p int) int   { return snapChunkDown(cut, total, p) }
func (ringChunkAligned) SnapUp(cut, total, p int) int { return snapChunkUp(cut, total, p) }

func (ringChunkAligned) Cost(net *topology.Network, p, lo, hi, _ int, onCPE bool) allreduce.Cost {
	return allreduce.RingCost(net, p, float64(hi-lo)*4, onCPE)
}

// hierChunkAligned is the topology-hierarchical strategy: the
// schedule assigns chunk c of the k-chunk leader partition
// (k = topology.MinGroupSize of the strategy's p ranks under the active
// mapping, resolved once by StrategyFor — it walks the whole
// membership) a chunk-dependent association order, so buckets must land
// on allreduce.HierChunkBounds and each bucket runs the full schedule
// restricted to its chunks (allreduce.Schedule.Run). The
// mapping must be the same one the executing simnet cluster uses —
// the trainer passes its own through Config.Mapping.
type hierChunkAligned struct {
	allreduce.Schedule
	k int
}

func (h hierChunkAligned) Snap(cut, total, _ int) int   { return snapChunkDown(cut, total, h.k) }
func (h hierChunkAligned) SnapUp(cut, total, _ int) int { return snapChunkUp(cut, total, h.k) }

func (h hierChunkAligned) Cost(net *topology.Network, p, lo, hi, total int, onCPE bool) allreduce.Cost {
	// m = leader chunks the bucket spans (bucket bounds are snapped
	// onto the chunk partition, so the count is exact).
	k := h.k
	m := 0
	for c := 0; c < k; c++ {
		if c*total/k < hi && (c+1)*total/k > lo {
			m++
		}
	}
	return allreduce.HierarchicalSegmentCost(net, p, float64(hi-lo)*4, float64(m), onCPE)
}

// StrategyFor resolves the bucketing strategy for a named algorithm,
// or wraps a caller-supplied custom body (custom bodies are assumed
// element-uniform — the contract the pre-engine overlap trainer
// already imposed — and priced with the improved-RHD cost model
// unless the name says otherwise). An empty name selects the default
// recursive halving/doubling. mapping is the rank-to-supernode
// mapping of the executing cluster: the hierarchical strategy derives
// its chunk partition from it, and flat RHD is priced with the
// adjacent-numbering cost (Eqns. 2–4) instead of the round-robin one
// (Eqns. 5–6) when the mapping says ranks fill supernodes adjacently.
// A nil mapping means the trainer default (round-robin at TaihuLight
// q); NameAuto must be resolved by SelectPlan before coming here. p is
// the rank count the strategy will bucket and price for — the p its
// methods are then called with.
func StrategyFor(name string, body allreduce.Algorithm, mapping topology.Mapping, p int) (Strategy, error) {
	name = allreduce.Canonical(name)
	if mapping == nil {
		mapping = topology.RoundRobinMapping{Q: topology.SupernodeSize}
	}
	if body != nil {
		cost, err := allreduce.CostByName(name)
		if err != nil {
			cost = allreduce.ImprovedRHDCost
		}
		if name == "" {
			name = "custom"
		}
		return custom{uniform: uniform{cost: cost}, name: name, alg: body}, nil
	}
	switch name {
	case "":
		name = allreduce.NameRHD
	case NameAuto:
		return nil, fmt.Errorf("collective: %q is a selector directive, not a strategy — resolve it with SelectPlan", NameAuto)
	}
	sched, err := allreduce.ScheduleByName(name)
	if err != nil {
		return nil, err
	}
	switch name {
	case allreduce.NameRing:
		return ringChunkAligned{sched}, nil
	case allreduce.NameHierarchical:
		return hierChunkAligned{sched, topology.MinGroupSize(mapping, p)}, nil
	}
	cost, err := allreduce.CostByName(name)
	if err != nil {
		return nil, fmt.Errorf("collective: %w", err)
	}
	if name == allreduce.NameRHD && mapping.Name() == (topology.AdjacentMapping{}).Name() {
		cost = allreduce.OriginalRHDCost
	}
	return uniform{sched, cost}, nil
}
