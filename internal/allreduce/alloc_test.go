package allreduce

import (
	"testing"

	"swcaffe/internal/des"
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// TestRHDAllocationBudget holds recursive halving/doubling to a small
// constant number of objects per rank per call on a warm cluster,
// whatever the round count (p = 64 runs 12 exchanges per rank, and used
// to allocate one send buffer per exchange, plus one continuation and
// one event per exchange on the DES backend).
//
// What is left, per rank — goroutine backend: the result vector, the
// rank's goroutine and its closure. DES backend: the result vector,
// the call's state and its two phase continuations, the Finish method
// value. Per run, on both: the Result's clocks and a few run-scoped
// objects. Measured: 3.1 and 5.0 per rank. The budgets leave slack for
// the runtime (goroutine reuse is not exact), not for a per-round
// object: 12 of those would blow them.
func TestRHDAllocationBudget(t *testing.T) {
	const p, n = 64, 4096
	const simPerRank, desPerRank = 4, 6
	net := sunwayQ(8)
	m := topology.RoundRobinMapping{Q: 8}
	inputs := intInputs(p, n)

	scl := simnet.NewCluster(net, m, p)
	simRun := func() {
		scl.RunGather(func(nd *simnet.Node) []float32 { return RecursiveHalvingDoubling(nd, inputs[nd.Rank]) })
	}
	simRun()
	if got := testing.AllocsPerRun(10, simRun); got > simPerRank*p {
		t.Errorf("goroutine RHD p=%d n=%d: %v allocations per run, budget %d per rank", p, n, got, simPerRank)
	}

	dcl := des.NewCluster(net, m, p)
	desRun := func() {
		dcl.RunGather(func(r *des.Rank) { RecursiveHalvingDoublingDES(r, inputs[r.Rank], r.Finish) })
	}
	desRun()
	if got := testing.AllocsPerRun(10, desRun); got > desPerRank*p {
		t.Errorf("DES RHD p=%d n=%d: %v allocations per run, budget %d per rank", p, n, got, desPerRank)
	}
}
