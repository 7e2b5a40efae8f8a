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
// interpreter's stack. DES backend: the call's state (which holds the
// cursor), its one continuation, the Finish method value. The result
// vector is the rank's arena memory on both. Per run, on both: the
// Result's clocks and a few run-scoped objects. Measured: 2.1 and 3.0
// per rank for every schedule. The budgets leave slack for the runtime
// (goroutine reuse is not exact), not for a per-round object: 12 of
// those would blow them.
func TestRHDAllocationBudget(t *testing.T) {
	const p, n = 64, 4096
	const simPerRank, desPerRank = 3, 4
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

// allocBytes is the heap bytes f allocates (MemStats.TotalAlloc, the
// count the benchmark's host_alloc_bytes_per_op reads).
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWarmCollectiveAllocatesNoVector: the result of a collective is the
// rank's arena memory, so a warm run at p = 32 over 2¹⁶ floats per rank
// allocates less than n bytes in all — a quarter of one rank's vector,
// where it used to allocate thirty-two of them — on either backend,
// for every schedule.
//
// And the result is all a call takes from the arena (a hierarchical
// leader whose chunk needs a pad aside), so a cluster that one schedule
// warmed is warm for the others too: after one RHD call the first call
// of each other schedule allocates its links and less than n/8 bytes
// per rank — 0.4 to 2.1 kB measured, where the ring's first call
// allocated its p-1 staged chunks (257 kB per rank) and the
// hierarchical one each leader's scratch vector (35 kB). A benchmark
// window that cycles schedules on one cluster carried those one-off
// blocks in its per-op figure.
func TestWarmCollectiveAllocatesNoVector(t *testing.T) {
	const p, n = 32, 1 << 16
	net := sunwayQ(8)
	m := topology.RoundRobinMapping{Q: 8}
	inputs := intInputs(p, n)
	for _, name := range Names() {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sched, _ := ScheduleByName(name)
		scl, dcl := simnet.NewCluster(net, m, p), des.NewCluster(net, m, p)
		for _, run := range []struct {
			backend string
			f       func()
		}{
			{"goroutine", func() {
				scl.RunGather(func(nd *simnet.Node) []float32 { return alg(nd, inputs[nd.Rank]) })
			}},
			{"DES", func() {
				dcl.RunGather(func(r *des.Rank) { sched.RunDES(r, inputs[r.Rank], 0, n, r.Finish) })
			}},
		} {
			run.f() // cold: the run's vectors become the arenas
			if got := allocBytes(run.f); got >= n {
				t.Errorf("%s %s p=%d: a warm run of %d floats per rank allocated %d bytes, budget %d", run.backend, name, p, n, got, n)
			}
		}
	}

	for _, name := range Names() {
		if name == NameRHD {
			continue
		}
		sched, _ := ScheduleByName(name)
		scl, dcl := simnet.NewCluster(net, m, p), des.NewCluster(net, m, p)
		for _, run := range []struct {
			backend string
			f       func(s Schedule)
		}{
			{"goroutine", func(s Schedule) {
				scl.RunGather(func(nd *simnet.Node) []float32 { return s.Run(nd, inputs[nd.Rank], 0, n) })
			}},
			{"DES", func(s Schedule) {
				dcl.RunGather(func(r *des.Rank) { s.RunDES(r, inputs[r.Rank], 0, n, r.Finish) })
			}},
		} {
			run.f(schedRHD)
			if got := allocBytes(func() { run.f(sched) }); got >= p*n/8 {
				t.Errorf("%s p=%d: the first %s call after an RHD call allocated %d bytes per rank, budget %d", run.backend, p, name, got/p, n/8)
			}
		}
	}
}
