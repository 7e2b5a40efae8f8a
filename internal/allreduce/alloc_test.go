package allreduce

import (
	"testing"

	"swcaffe/internal/des"
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// TestRHDAllocationBudget (named for the schedule it started with)
// holds every schedule to a small constant number of objects per rank
// per call on a warm cluster, whatever the round count (at p = 64 RHD
// runs 12 exchanges per rank and the ring 126 steps, and each once
// allocated a send buffer per exchange, plus a continuation and an
// event per exchange on the DES backend).
//
// What is left, per rank — goroutine backend: the result vector, the
// rank's goroutine and its closure; the cursor and the round in flight
// stay on the interpreter's stack. DES backend: the result vector, the
// call's state (which holds the cursor), its one continuation, the
// Finish method value. Per run, on both: the Result's clocks and a few
// run-scoped objects. Measured: 3.1 and 4.0 per rank for every
// schedule. The budgets leave slack for the runtime (goroutine reuse is
// not exact), not for a per-round object: 12 of those would blow them.
func TestRHDAllocationBudget(t *testing.T) {
	const p, n = 64, 4096
	const simPerRank, desPerRank = 4, 5
	net := sunwayQ(8)
	m := topology.RoundRobinMapping{Q: 8}
	inputs := intInputs(p, n)

	for s := range schedules {
		sched := Schedule(s)
		scl := simnet.NewCluster(net, m, p)
		simRun := func() {
			scl.RunGather(func(nd *simnet.Node) []float32 { return sched.Run(nd, inputs[nd.Rank], 0, n) })
		}
		simRun()
		if got := testing.AllocsPerRun(10, simRun); got > simPerRank*p {
			t.Errorf("goroutine %s p=%d n=%d: %v allocations per run, budget %d per rank", sched.Name(), p, n, got, simPerRank)
		}

		dcl := des.NewCluster(net, m, p)
		desRun := func() {
			dcl.RunGather(func(r *des.Rank) { sched.RunDES(r, inputs[r.Rank], 0, n, r.Finish) })
		}
		desRun()
		if got := testing.AllocsPerRun(10, desRun); got > desPerRank*p {
			t.Errorf("DES %s p=%d n=%d: %v allocations per run, budget %d per rank", sched.Name(), p, n, got, desPerRank)
		}
	}
}
