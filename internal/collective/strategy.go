// Package collective implements the unified gradient-synchronization
// engine of the distributed trainer (paper Sec. V-A): bucket
// construction over the packed gradient vector, flush ordering during
// backward, per-algorithm bucketing strategies, the plan selector
// (algorithm × bucket cap), and the modeled-makespan composition of
// the overlapped timeline. The trainer packs gradients and launches
// passes; the engine decides where the buckets fall, which collective
// schedule reduces each one bit-identically to the one-shot barrier,
// and what the overlap is worth on the modeled clock — so a new
// all-reduce schedule plugs in as a StrategyFor case instead of a
// trainer rewrite.
package collective

import (
	"fmt"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/topology"
)

// Strategy is a built-in all-reduce schedule as the engine buckets and
// prices it. The embedded allreduce.Schedule reduces one bucket where it
// lies (Run on the goroutine backend, RunDES on the event backend), with
// the association order it would use on the whole packed vector, so
// bucketed and barrier flushes agree bit for bit. That holds only for
// buckets on the schedule's chunk partition: bounds floor(i*total/chunks),
// where chunks is p for the ring, whose rotation depends on the chunk,
// and topology.MinGroupSize for the hierarchical schedule's leader
// chunks — a partition of one chunk admits only the whole vector. The
// element-uniform schedules (recursive halving/doubling and the binomial
// tree reduce every element alike) and a lone rank, which moves nothing,
// admit any cut.
type Strategy struct {
	allreduce.Schedule
	chunks  int
	uniform bool // any cut: chunks does not bound the buckets
	cost    allreduce.CostFunc
}

// Cost prices the flush of the [lo, hi) bucket of a packed float32
// vector of total elements with the closed-form α-β-γ model (paper
// Eqns. 2–6 plus allreduce.HierarchicalCost; see allreduce.CostByName
// for how the selector uses it). The flat schedules price by size
// alone. A hierarchical bucket's position matters too: spanning few
// leader chunks concentrates its traffic on few owners
// (allreduce.HierarchicalSegmentCost).
func (s Strategy) Cost(net *topology.Network, p, lo, hi, total int, onCPE bool) allreduce.Cost {
	bytes := float64(hi-lo) * 4
	if s.Name() != allreduce.NameHierarchical {
		return s.cost(net, p, bytes, onCPE)
	}
	// m = leader chunks the bucket spans (bucket bounds are snapped
	// onto the chunk partition, so the count is exact).
	m := 0
	for c := 0; c < s.chunks; c++ {
		if c*total/s.chunks < hi && (c+1)*total/s.chunks > lo {
			m++
		}
	}
	return allreduce.HierarchicalSegmentCost(net, p, bytes, float64(m), onCPE)
}

// snapChunkDown returns the largest bound of the k-chunk partition of
// total elements that is <= cut; snapChunkUp the smallest >= cut.
func snapChunkDown(cut, total, k int) int {
	if total == 0 {
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
	if total == 0 {
		return cut
	}
	i := cut * k / total
	for i < k && i*total/k < cut {
		i++
	}
	return i * total / k
}

// StrategyFor resolves the strategy of a named built-in algorithm; an
// empty name selects the default recursive halving/doubling. mapping is
// the rank-to-supernode mapping of the executing cluster (nil means the
// trainer default, round-robin at TaihuLight q): the hierarchical
// strategy derives its chunk partition from it, and flat RHD is priced
// with the adjacent-numbering cost (Eqns. 2–4) instead of the
// round-robin one (Eqns. 5–6) when ranks fill supernodes adjacently.
// p is the rank count the strategy buckets and prices for — the p its
// Cost is then called with. NameAuto must be resolved by SelectPlan
// before coming here.
func StrategyFor(name string, mapping topology.Mapping, p int) (Strategy, error) {
	if mapping == nil {
		mapping = topology.RoundRobinMapping{Q: topology.SupernodeSize}
	}
	switch name = allreduce.Canonical(name); name {
	case "":
		name = allreduce.NameRHD
	case NameAuto:
		return Strategy{}, fmt.Errorf("collective: %q is a selector directive, not a strategy — resolve it with SelectPlan", NameAuto)
	}
	sched, err := allreduce.ScheduleByName(name)
	if err != nil {
		return Strategy{}, err
	}
	s := Strategy{Schedule: sched, chunks: 1, uniform: true}
	if s.cost, err = allreduce.CostByName(name); err != nil {
		return Strategy{}, fmt.Errorf("collective: %w", err)
	}
	switch name {
	case allreduce.NameRing:
		s.chunks, s.uniform = p, p == 1
	case allreduce.NameHierarchical:
		s.chunks, s.uniform = topology.MinGroupSize(mapping, p), p == 1
	case allreduce.NameRHD:
		if mapping.Name() == (topology.AdjacentMapping{}).Name() {
			s.cost = allreduce.OriginalRHDCost
		}
	}
	return s, nil
}
