package allreduce

import (
	"math/rand"
	"sync"
	"testing"

	"swcaffe/internal/des"
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// gatherDES runs a schedule over a padded copy of inputs on a fresh
// event-driven cluster and returns every rank's output — the copy,
// reduced in place — plus the run result.
func gatherDES(net *topology.Network, m topology.Mapping, p int, inputs [][]float32, s Schedule) ([][]float32, des.Result) {
	cl := des.NewCluster(net, m, p)
	data := padded(inputs)
	res, out := cl.RunGather(func(r *des.Rank) {
		s.RunDES(r, data[r.Rank], 0, len(data[r.Rank]), r.Finish)
	})
	return out, res
}

// randInputs builds full-precision random vectors. The KPN argument
// says the DES schedule must reproduce the goroutine schedule's floats
// bit-for-bit, so no integer-payload crutch is needed here.
func randInputs(p, length int) [][]float32 {
	rng := rand.New(rand.NewSource(int64(p*7919 + length)))
	inputs := make([][]float32, p)
	for r := range inputs {
		inputs[r] = make([]float32, length)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.NormFloat64())
		}
	}
	return inputs
}

// TestDESBitIdenticalToGoroutine: every schedule's event-backend run
// must agree with its goroutine-backend run hex-exactly — outputs,
// per-rank clocks, makespan, and the message census — across uniform,
// ragged, power-of-two and prime shapes under both mappings.
func TestDESBitIdenticalToGoroutine(t *testing.T) {
	shapes := []struct{ p, q int }{
		{1, 4},  // degenerate single rank
		{2, 4},  // one exchange
		{4, 4},  // single supernode
		{8, 4},  // 2 supernodes of 4
		{10, 4}, // ragged: groups of 4,4,2
		{7, 3},  // ragged prime p
		{16, 4}, // power-of-two world
		{33, 8}, // odd p over a larger supernode
	}
	lengths := []int{1, 5, 64, 1000}
	for _, sh := range shapes {
		net := sunwayQ(sh.q)
		for _, m := range []topology.Mapping{
			topology.AdjacentMapping{Q: sh.q},
			topology.RoundRobinMapping{Q: sh.q},
		} {
			for _, length := range lengths {
				inputs := randInputs(sh.p, length)
				for s := range schedules {
					wantOut, wantRes := gather(net, m, sh.p, inputs, schedules[s].alg)
					gotOut, gotRes := gatherDES(net, m, sh.p, inputs, Schedule(s))
					checkDESMatch(t, schedules[s].name, sh.p, sh.q, length, wantOut, wantRes, gotOut, gotRes)
				}
			}
		}
	}
}

func checkDESMatch(t *testing.T, name string, p, q, length int, wantOut [][]float32, want simnet.Result, gotOut [][]float32, got des.Result) {
	t.Helper()
	for r := 0; r < p; r++ {
		if len(gotOut[r]) != len(wantOut[r]) {
			t.Fatalf("%s p=%d q=%d len=%d rank %d: DES returned %d elems, goroutine %d",
				name, p, q, length, r, len(gotOut[r]), len(wantOut[r]))
		}
		for i := range gotOut[r] {
			if gotOut[r][i] != wantOut[r][i] {
				t.Fatalf("%s p=%d q=%d len=%d rank %d elem %d: DES %v goroutine %v",
					name, p, q, length, r, i, gotOut[r][i], wantOut[r][i])
			}
		}
		if got.Clocks[r] != want.Clocks[r] {
			t.Fatalf("%s p=%d q=%d len=%d rank %d clock: DES %v goroutine %v",
				name, p, q, length, r, got.Clocks[r], want.Clocks[r])
		}
	}
	if got.Time != want.Time {
		t.Fatalf("%s p=%d q=%d len=%d makespan: DES %v goroutine %v", name, p, q, length, got.Time, want.Time)
	}
	if got.Msgs != want.Msgs || got.CrossMsgs != want.CrossMsgs || got.CrossBytes != want.CrossBytes {
		t.Fatalf("%s p=%d q=%d len=%d census: DES (%d,%d,%d) goroutine (%d,%d,%d)",
			name, p, q, length, got.Msgs, got.CrossMsgs, got.CrossBytes,
			want.Msgs, want.CrossMsgs, want.CrossBytes)
	}
}

// TestDESDeterministicAcrossRuns: two DES runs of the same schedule
// must agree exactly — the (time, rank, seq) tie-break leaves no room
// for iteration-order or timing noise.
func TestDESDeterministicAcrossRuns(t *testing.T) {
	net := sunwayQ(4)
	m := topology.AdjacentMapping{Q: 4}
	inputs := randInputs(10, 257)
	out1, res1 := gatherDES(net, m, 10, inputs, schedHierarchical)
	out2, res2 := gatherDES(net, m, 10, inputs, schedHierarchical)
	if res1.Time != res2.Time || res1.Msgs != res2.Msgs {
		t.Fatalf("DES not deterministic: %v/%d vs %v/%d", res1.Time, res1.Msgs, res2.Time, res2.Msgs)
	}
	for r := range out1 {
		for i := range out1[r] {
			if out1[r][i] != out2[r][i] {
				t.Fatalf("rank %d elem %d differs across identical DES runs", r, i)
			}
		}
	}
}

// TestDESHierPhaseHook: the hierarchical schedule must fire the same
// phase-boundary hook sequence per rank on both backends.
func TestDESHierPhaseHook(t *testing.T) {
	net := sunwayQ(4)
	m := topology.AdjacentMapping{Q: 4}
	const p = 8
	inputs := randInputs(p, 64)

	var mu sync.Mutex
	record := func(into map[int][]HierPhase) PhaseHook {
		return func(rank int, _ float64, phase HierPhase) {
			mu.Lock()
			into[rank] = append(into[rank], phase)
			mu.Unlock()
		}
	}
	gorPhases := make(map[int][]HierPhase)
	prev := SetHierPhaseHook(record(gorPhases))
	gather(net, m, p, inputs, Hierarchical)

	desPhases := make(map[int][]HierPhase)
	SetHierPhaseHook(record(desPhases))
	gatherDES(net, m, p, inputs, schedHierarchical)
	SetHierPhaseHook(prev)

	for r := 0; r < p; r++ {
		if len(gorPhases[r]) != 3 || len(desPhases[r]) != 3 {
			t.Fatalf("rank %d: phase counts goroutine=%d des=%d, want 3", r, len(gorPhases[r]), len(desPhases[r]))
		}
		for i := range gorPhases[r] {
			if gorPhases[r][i] != desPhases[r][i] {
				t.Fatalf("rank %d phase %d: goroutine %v des %v", r, i, gorPhases[r][i], desPhases[r][i])
			}
		}
	}
}
