package allreduce

import (
	"runtime"
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
// What is left, per rank — goroutine backend: the rank's goroutine and
// its closure; the cursor and the round in flight stay on the
// interpreter's stack. DES backend: nothing — the call's state, which
// holds the cursor, and its one continuation live in the DESRun, which
// keeps them from call to call. The result is the vector the rank was
// given, reduced where it lies, on both. Per run, on both: the Result's
// clocks and a few run-scoped objects. Measured: 2.1 per rank on the
// goroutine backend and 1 per run on the DES backend, for every
// schedule (3.0 per rank while each DES call built its own state). The
// budgets leave slack for the runtime (goroutine reuse is not exact),
// not for a per-round object: 12 of those would blow them.
func TestRHDAllocationBudget(t *testing.T) {
	const p, n = 64, 4096
	const simPerRank, desPerRun = 3, 4
	net := sunwayQ(8)
	m := topology.RoundRobinMapping{Q: 8}
	inputs := padded(intInputs(p, n)) // reduced in place, over and over: only the counts matter

	for s := range schedules {
		sched := Schedule(s)
		scl := simnet.NewCluster(net, m, p)
		simRun := func() {
			scl.RunGather(func(nd *simnet.Node) []float32 { return sched.Run(nd, inputs[nd.Rank], 0, n, nil) })
		}
		simRun()
		if got := testing.AllocsPerRun(10, simRun); got > simPerRank*p {
			t.Errorf("goroutine %s p=%d n=%d: %v allocations per run, budget %d per rank", sched.Name(), p, n, got, simPerRank)
		}

		dcl, run := des.NewCluster(net, m, p), NewDESRun(p, n)
		desRun := func() {
			run.Gather(dcl, Pool{}, func(r *des.Rank) { sched.RunDES(run, r, inputs[r.Rank], 0, n, nil, (*des.Rank).Finish) })
		}
		desRun()
		if got := testing.AllocsPerRun(10, desRun); got > desPerRun {
			t.Errorf("DES %s p=%d n=%d: %v allocations per run, budget %d", sched.Name(), p, n, got, desPerRun)
		}
	}
}

// allocBytes is the heap bytes f allocates (MemStats.TotalAlloc, the
// count the benchmark's host_alloc_bytes_per_op reads).
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWarmCollectiveAllocatesNoVector: a schedule reduces the vector it
// is given where it lies, and the one-shot forms run in the rank's arena
// memory, so a warm run at p = 32 over 2¹⁶ floats per rank allocates
// less than n bytes in all — a quarter of one rank's vector, where it
// used to allocate thirty-two of them — on either backend, for every
// schedule, in place or one-shot.
func TestWarmCollectiveAllocatesNoVector(t *testing.T) {
	const p, n = 32, 1 << 16
	net := sunwayQ(8)
	m := topology.RoundRobinMapping{Q: 8}
	inputs := intInputs(p, n)
	data := padded(inputs)
	for _, name := range Names() {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sched, _ := ScheduleByName(name)
		scl, dcl, dr := simnet.NewCluster(net, m, p), des.NewCluster(net, m, p), NewDESRun(p, n)
		for _, run := range []struct {
			form string
			f    func()
		}{
			{"goroutine one-shot", func() {
				scl.RunGather(func(nd *simnet.Node) []float32 { return alg(nd, inputs[nd.Rank]) })
			}},
			{"goroutine in-place", func() {
				scl.RunGather(func(nd *simnet.Node) []float32 { return sched.Run(nd, data[nd.Rank], 0, n, nil) })
			}},
			{"DES in-place", func() {
				dr.Gather(dcl, Pool{}, func(r *des.Rank) { sched.RunDES(dr, r, data[r.Rank], 0, n, nil, (*des.Rank).Finish) })
			}},
		} {
			run.f() // cold: the one-shot run's vectors become the arenas
			if got := allocBytes(run.f); got >= n {
				t.Errorf("%s %s p=%d: a warm run of %d floats per rank allocated %d bytes, budget %d", run.form, name, p, n, got, n)
			}
		}
	}
}

// TestInPlaceCollectiveTakesNoArenaVector: the copy cannot come back.
// Whatever a call takes from its rank's arena on a cluster that has
// never run, the arena allocates (scratch.Arena.Take), so the first
// in-place call on a fresh cluster shows exactly what the interpreters
// take: nothing for the ring, the tree and flat RHD — pad included, it
// lies in the caller's capacity — and for the hierarchical schedule only
// the work vector of a leader whose chunk needs a pad. What is left is
// the cluster itself, its links and run state, 0.7 to 1.8 kB per rank
// when last measured against a budget of n/8 bytes (hierarchical: 21 kB
// against 41); a result vector would be 4n = 262 kB.
func TestInPlaceCollectiveTakesNoArenaVector(t *testing.T) {
	const p, q = 24, 8 // RHD's core of 16 pads; 3 supernodes, so the leaders' core of 2 does too
	const n = 1<<16 + 5
	net := sunwayQ(q)
	m := topology.RoundRobinMapping{Q: q}
	inputs := intInputs(p, n)
	run := NewDESRun(p, n) // the engine's, built once: what a call takes is the question
	for s := range schedules {
		sched := Schedule(s)
		budget := p * n / 8
		if sched == schedHierarchical {
			// A leader's padded copy of its chunk: n/K floats and the pad.
			budget += p * (n/topology.MinGroupSize(m, p) + 2) * 4
		}
		for _, run := range []struct {
			backend string
			f       func(data [][]float32)
		}{
			{"goroutine", func(data [][]float32) {
				simnet.NewCluster(net, m, p).RunGather(func(nd *simnet.Node) []float32 { return sched.Run(nd, data[nd.Rank], 0, n, nil) })
			}},
			{"DES", func(data [][]float32) {
				dcl := des.NewCluster(net, m, p)
				run.Gather(dcl, Pool{}, func(r *des.Rank) { sched.RunDES(run, r, data[r.Rank], 0, n, nil, (*des.Rank).Finish) })
			}},
		} {
			data := padded(inputs)
			if got := allocBytes(func() { run.f(data) }); got >= uint64(budget) {
				t.Errorf("%s %s p=%d n=%d: a fresh cluster's first in-place call allocated %d bytes per rank, budget %d",
					run.backend, sched.Name(), p, n, got/p, budget/p)
			}
		}
	}
}
