package allreduce

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"swcaffe/internal/des"
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// gatherDES runs a schedule over a padded copy of inputs on a fresh
// event-driven cluster and returns every rank's output — the copy,
// reduced in place — plus the run result. A non-nil clks takes each
// rank's phase clocks.
func gatherDES(net *topology.Network, m topology.Mapping, p int, inputs [][]float32, s Schedule, clks []PhaseClocks) ([][]float32, topology.Result) {
	cl := des.NewCluster(net, m, p)
	data := padded(inputs)
	res, out := cl.RunGather(func(r *des.Rank) {
		s.RunDES(r, data[r.Rank], 0, len(data[r.Rank]), slot(clks, r.Rank), r.Finish)
	})
	return out, res
}

// hierPhaseClocks runs the hierarchical schedule over a padded copy of
// inputs on a fresh goroutine cluster and returns each rank's phase
// clocks.
func hierPhaseClocks(net *topology.Network, m topology.Mapping, p int, inputs [][]float32) []PhaseClocks {
	clks := make([]PhaseClocks, p)
	data := padded(inputs)
	simnet.NewCluster(net, m, p).Run(func(n *simnet.Node) {
		schedHierarchical.Run(n, data[n.Rank], 0, len(data[n.Rank]), &clks[n.Rank])
	})
	return clks
}

// slot is rank's entry of clks, or nil when clks is.
func slot(clks []PhaseClocks, rank int) *PhaseClocks {
	if clks == nil {
		return nil
	}
	return &clks[rank]
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
// per-rank clocks, makespan, and the message census, and for the
// hierarchical schedule each rank's phase clocks as the call records
// them — across uniform, ragged, power-of-two and prime shapes under
// both mappings.
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
					var gotClks []PhaseClocks
					if Schedule(s) == schedHierarchical {
						gotClks = make([]PhaseClocks, sh.p)
					}
					wantOut, wantRes := gather(net, m, sh.p, inputs, schedules[s].alg)
					gotOut, gotRes := gatherDES(net, m, sh.p, inputs, Schedule(s), gotClks)
					checkDESMatch(t, schedules[s].name, sh.p, sh.q, length, wantOut, wantRes, gotOut, gotRes)
					if gotClks != nil {
						checkPhaseClocks(t, fmt.Sprintf("p=%d q=%d %s len=%d", sh.p, sh.q, m.Name(), length),
							hierPhaseClocks(net, m, sh.p, inputs), gotClks, wantRes.Clocks)
					}
				}
			}
		}
	}
}

func checkDESMatch(t *testing.T, name string, p, q, length int, wantOut [][]float32, want topology.Result, gotOut [][]float32, got topology.Result) {
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

// checkPhaseClocks requires the DES run's phase clocks to be the
// goroutine run's bit for bit, and both to be a rank's clocks in
// schedule order: non-decreasing and no later than where the rank
// finished. With more than one rank some rank must have entered its
// allgather after a message, so a run that recorded nothing fails.
func checkPhaseClocks(t *testing.T, label string, want, got []PhaseClocks, finish []float64) {
	t.Helper()
	var latest float64
	for r := range want {
		for i := range want[r] {
			if math.Float64bits(got[r][i]) != math.Float64bits(want[r][i]) {
				t.Fatalf("%s rank %d phase %d clock: DES %v goroutine %v", label, r, i, got[r][i], want[r][i])
			}
		}
		if c := want[r]; !(c[0] <= c[1] && c[1] <= c[2] && c[2] <= finish[r]) {
			t.Fatalf("%s rank %d: phase clocks %v out of order (finish %v)", label, r, c, finish[r])
		}
		latest = max(latest, want[r][2])
	}
	if len(want) > 1 && !(latest > 0) {
		t.Fatalf("%s: no rank recorded an allgather entry past 0: %v", label, want)
	}
}

// TestDESDeterministicAcrossRuns: two DES runs of the same schedule
// must agree exactly — one thread runs the ready continuations in the
// order they became ready, which leaves no room for iteration-order or
// timing noise.
func TestDESDeterministicAcrossRuns(t *testing.T) {
	net := sunwayQ(4)
	m := topology.AdjacentMapping{Q: 4}
	inputs := randInputs(10, 257)
	out1, res1 := gatherDES(net, m, 10, inputs, schedHierarchical, nil)
	out2, res2 := gatherDES(net, m, 10, inputs, schedHierarchical, nil)
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

// TestDESHierPhaseHook: the hierarchical schedule must fire the tests'
// fault seam (SetHierPhaseHook) with the same phase sequence per rank
// on both backends, so a kill injected at a boundary means the same
// thing on either. The phase clocks themselves are compared by
// TestDESBitIdenticalToGoroutine.
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
	gatherDES(net, m, p, inputs, schedHierarchical, nil)
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

// TestDESPaperScale pins the shape the paper's scaling figures run at:
// p = 1024 ranks on the q = 256 adjacent-mapped machine, flat RHD and
// the hierarchical schedule (about 2·10^4 and 5·10^5 messages a call).
// On integer inputs every rank must end with the exact sum, the census
// must be the one the schedule walked as data predicts, and a second
// run on the cluster's recycled state must reproduce every clock. The
// DES runs take a fraction of a second; the schedule walk's vector
// clocks (p entries a message) take seconds, so -short skips the test.
func TestDESPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("p = 1024 schedule walk; run without -short")
	}
	const p, q, n = 1024, 256, 2048
	net, m := sunwayQ(q), topology.AdjacentMapping{Q: q}
	inputs := intInputs(p, n)
	sum := make([]float32, n)
	for _, in := range inputs {
		for i, v := range in {
			sum[i] += v
		}
	}
	for _, s := range []Schedule{schedRHD, schedHierarchical} {
		name := schedules[s].name
		cl := des.NewCluster(net, m, p)
		var clocks []float64
		for run := range 2 {
			data := padded(inputs)
			res, outs := cl.RunGather(func(r *des.Rank) {
				s.RunDES(r, data[r.Rank], 0, n, nil, r.Finish)
			})
			for r, out := range outs {
				if !slices.Equal(out, sum) {
					t.Fatalf("%s run %d: rank %d did not end with the exact sum", name, run, r)
				}
			}
			if run == 0 {
				census, bad := walkSchedule(s, topology.NewLayout(m, p), p, 0, n, n)
				if bad != "" {
					t.Fatalf("%s: schedule walk: %s", name, bad)
				}
				if got := [3]int64{res.Msgs, res.CrossMsgs, res.CrossBytes}; got != census {
					t.Fatalf("%s: census %v, the schedule walk counts %v", name, got, census)
				}
				clocks = slices.Clone(res.Clocks)
				continue
			}
			for r := range clocks {
				if math.Float64bits(res.Clocks[r]) != math.Float64bits(clocks[r]) {
					t.Fatalf("%s: recycled run's rank %d clock %v, first run %v", name, r, res.Clocks[r], clocks[r])
				}
			}
		}
	}
}
