package allreduce

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"swcaffe/internal/des"
	"swcaffe/internal/detrand"
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

var replaySeed = flag.Uint64("replay-seed", 20261017, "base seed of TestReplayMatchesInline's generated cases")

// goPool is a Pool of real workers, as the trainer's: worker 0 on the
// calling goroutine, the rest on goroutines of their own, joined before
// it returns.
func goPool(k int, fn func(m int)) {
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for m := 1; m < k; m++ {
		go func() {
			defer wg.Done()
			fn(m)
		}()
	}
	fn(0)
	wg.Wait()
}

// backwardPool runs a pool's workers one at a time, last first: a split
// whose result depends on which worker runs when shows.
func backwardPool(k int, fn func(m int)) {
	for m := k - 1; m >= 0; m-- {
		fn(m)
	}
}

// replayConfig is one way to land a DES run's log: tiles of tile
// elements, a replay every window ops, on pool.
type replayConfig struct {
	tile, window int
	pool         Pool
}

func (rc replayConfig) String() string {
	window := fmt.Sprint(rc.window)
	if rc.window == math.MaxInt {
		window = "unbounded"
	}
	return fmt.Sprintf("tile=%d window=%s workers=%d", rc.tile, window, rc.pool.K)
}

// replayRun is a DESRun that lands as rc says.
func replayRun(p int, rc replayConfig) *DESRun {
	d := NewDESRun(p, 0)
	d.log = payLog{tile: rc.tile, window: rc.window}
	return d
}

// replayInputs fills p views of total elements and p floats of slack with
// full-precision values (so every association order shows), the slack
// with a value no schedule writes.
func replayInputs(rng *detrand.RNG, p, total int) [][]float32 {
	data := make([][]float32, p)
	for r := range data {
		data[r] = make([]float32, total+p)
		for i := range data[r] {
			data[r][i] = float32(rng.NormFloat64())
		}
		for i := total; i < total+p; i++ {
			data[r][i] = -7
		}
		data[r] = data[r][:total]
	}
	return data
}

// cloneViews copies views, each with its capacity and what lies there.
func cloneViews(data [][]float32) [][]float32 {
	out := make([][]float32, len(data))
	for r, v := range data {
		out[r] = append(make([]float32, 0, cap(v)), v[:cap(v)]...)[:len(v)]
	}
	return out
}

// sameBits reports the first difference between two sets of whole
// views, the capacity past each one's length included.
func sameBits(got, want [][]float32) string {
	for r := range want {
		g, w := got[r][:cap(got[r])], want[r][:cap(want[r])]
		for i := range w {
			if g, w := math.Float32bits(g[i]), math.Float32bits(w[i]); g != w {
				return fmt.Sprintf("rank %d view[%d] = %#08x, want %#08x", r, i, g, w)
			}
		}
	}
	return ""
}

func sameResult(got, want topology.Result) string {
	for r := range want.Clocks {
		if math.Float64bits(got.Clocks[r]) != math.Float64bits(want.Clocks[r]) {
			return fmt.Sprintf("rank %d clock %v, want %v", r, got.Clocks[r], want.Clocks[r])
		}
	}
	if math.Float64bits(got.Time) != math.Float64bits(want.Time) || got.Msgs != want.Msgs ||
		got.CrossMsgs != want.CrossMsgs || got.CrossBytes != want.CrossBytes {
		return fmt.Sprintf("makespan %v census (%d,%d,%d), want %v (%d,%d,%d)", got.Time, got.Msgs, got.CrossMsgs, got.CrossBytes,
			want.Time, want.Msgs, want.CrossMsgs, want.CrossBytes)
	}
	return ""
}

// TestReplayMatchesInline: the event backend lands its payload from a
// log, in tiles, after the schedules have run; the goroutine backend
// lands each payload as it arrives. Over generated cases — p in {1, 2,
// 3, 5, 8, 128, 1024} (and one case at 4096, the ring aside, without
// -short), both mappings, ragged lengths and segments, and a mapping
// with a one-member supernode in every other case — every schedule's
// DES run must leave every rank's
// whole view, the slack past the vector included, and the run's clocks
// and census exactly as the goroutine run does, whatever the tile (1, 7,
// wider than the vector and its pad, the built-in size), the window (one
// op, 65 536 ops, unbounded, the built-in size) and the pool. Replay a
// failure with -replay-seed.
func TestReplayMatchesInline(t *testing.T) {
	ps := []int{1, 2, 3, 5, 8, 128, 1024}
	if !testing.Short() && !raceDetector { // 4096 views with their slack: 70 MB a copy
		ps = append(ps, 4096)
	}
	for ci, p := range ps {
		for k := 0; k < 2 && k*p < 4096; k++ { // one case at p = 4096
			seed := *replaySeed + uint64(2*ci+k)
			rng := detrand.New(seed)
			q := 1 + rng.Intn(9)
			if k == 0 && p > 2 { // adjacent, p % q = 1: the last supernode has one member
				q = p - 1
				for c := 9; c >= 2; c-- {
					if p%c == 1 {
						q = c
					}
				}
			}
			for k == 1 && p > 4 && !ragged(p, q) { // leaders with a pad: a hierarchical work vector
				q = 1 + rng.Intn(9)
			}
			var m topology.Mapping = topology.AdjacentMapping{Q: q}
			if k == 1 && rng.Intn(2) == 0 {
				m = topology.RoundRobinMapping{Q: q}
			}
			total := rng.Intn(2 * p)
			if p < 64 {
				total = rng.Intn(p * 40)
			}
			total = min(total, 2000*1024/p)
			net := sunwayQ(q)
			inputs := replayInputs(rng, p, total)
			for _, name := range Names() {
				sched, _ := ScheduleByName(name)
				if sched == schedRing && p > 1024 {
					continue // its cursors walk 2(p-1) rounds each whatever the segment: 3·10^7 steps a run
				}
				chunks := 0
				switch sched {
				case schedRing:
					chunks = p
				case schedHierarchical:
					chunks = topology.MinGroupSize(m, p)
				}
				lo, hi := replaySegment(rng, total, chunks, p)
				label := fmt.Sprintf("seed %d (-replay-seed %d): %s p=%d q=%d %s total=%d seg=[%d,%d)",
					seed, *replaySeed, name, p, q, m.Name(), total, lo, hi)

				want := cloneViews(inputs)
				wantRes, _ := simnet.NewCluster(net, m, p).RunGather(func(n *simnet.Node) []float32 {
					return sched.Run(n, want[n.Rank][lo:hi], lo, total, nil)
				})

				configs := []replayConfig{
					{1, 1, Pool{}},
					{7, 1, Pool{K: 4, Run: goPool}},
					{total + p + 1, 1, Pool{K: 3, Run: backwardPool}},
					{total + p + 1, math.MaxInt, Pool{}},
					{7, 1 << 16, Pool{K: 2, Run: goPool}},
					{tileElems, NewDESRun(p, total).log.window, Pool{K: 3, Run: goPool}},
				}
				if p > 1024 {
					configs = configs[3:]
				}
				if p <= 128 { // an unbounded log of narrow tiles holds an op per element landed
					configs = append(configs,
						replayConfig{1, math.MaxInt, Pool{K: 3, Run: backwardPool}},
						replayConfig{7, math.MaxInt, Pool{K: 2, Run: goPool}})
				}
				for _, rc := range configs {
					data := cloneViews(inputs)
					run := replayRun(p, rc)
					res, _ := run.Gather(des.NewCluster(net, m, p), rc.pool, func(r *des.Rank) {
						sched.RunDES(run, r, data[r.Rank][lo:hi], lo, total, nil, (*des.Rank).Finish)
					})
					if d := sameBits(data, want); d != "" {
						t.Fatalf("%s, %v: %s", label, rc, d)
					}
					if d := sameResult(res, wantRes); d != "" {
						t.Fatalf("%s, %v: %s", label, rc, d)
					}
				}
			}
		}
	}
}

// ragged reports whether p ranks fill a number of q-rank supernodes that
// is not a power of two, so that the hierarchical leaders fold onto a
// core and its members pad an odd chunk.
func ragged(p, q int) bool {
	s := (p + q - 1) / q
	return s > 2 && s&(s-1) != 0
}

// replaySegment picks a segment on the k-chunk partition (k = 0: any
// offsets), the whole vector a third of the time. Past 1000 ranks the
// ring's segment spans a few chunks: each chunk it covers circulates
// 2(p-1) messages.
func replaySegment(rng *detrand.RNG, total, k, p int) (lo, hi int) {
	if rng.Intn(3) == 0 && !(k == p && p > 1000) {
		return 0, total
	}
	bounds := make([]int, total+1)
	for i := range bounds {
		bounds[i] = i
	}
	if k > 0 {
		bounds = ChunkBounds(total, k)
	}
	a := rng.Intn(len(bounds))
	b := a + rng.Intn(len(bounds)-a)
	if k == p && p > 1000 {
		b = min(a+rng.Intn(8), len(bounds)-1)
	}
	return bounds[a], bounds[b]
}

// TestDESPhaseHookSeesLandedViews: the tests' phase hook may read or
// write the views mid-run (the trainer's fault tests do), so on the
// event backend the log lands whatever it holds before the hook fires.
// At every boundary each rank's hook must see its own whole view exactly
// as the goroutine backend's hook sees it there.
func TestDESPhaseHookSeesLandedViews(t *testing.T) {
	for _, sh := range []struct{ p, q, n int }{{8, 4, 64}, {10, 4, 257}, {5, 2, 33}} {
		net, m := sunwayQ(sh.q), topology.AdjacentMapping{Q: sh.q}
		inputs := replayInputs(detrand.New(uint64(sh.p*1000+sh.n)), sh.p, sh.n)
		seen := func(run func(data [][]float32)) map[[2]int][]float32 {
			data := cloneViews(inputs)
			var mu sync.Mutex
			got := make(map[[2]int][]float32)
			prev := SetHierPhaseHook(func(rank int, _ float64, phase HierPhase) {
				v := data[rank]
				mu.Lock()
				got[[2]int{rank, int(phase)}] = slices.Clone(v[:cap(v)])
				mu.Unlock()
			})
			defer SetHierPhaseHook(prev)
			run(data)
			return got
		}
		want := seen(func(data [][]float32) {
			simnet.NewCluster(net, m, sh.p).Run(func(n *simnet.Node) {
				schedHierarchical.Run(n, data[n.Rank], 0, sh.n, nil)
			})
		})
		got := seen(func(data [][]float32) {
			run := replayRun(sh.p, replayConfig{tile: 7, window: math.MaxInt})
			run.Gather(des.NewCluster(net, m, sh.p), Pool{K: 2, Run: goPool}, func(r *des.Rank) {
				schedHierarchical.RunDES(run, r, data[r.Rank], 0, sh.n, nil, (*des.Rank).Finish)
			})
		})
		if len(got) != 3*sh.p || len(want) != 3*sh.p {
			t.Fatalf("p=%d: the hook saw %d boundaries on DES and %d on goroutines, want %d", sh.p, len(got), len(want), 3*sh.p)
		}
		for key, w := range want {
			if d := sameBits([][]float32{got[key]}, [][]float32{w}); d != "" {
				t.Fatalf("p=%d q=%d: rank %d at %v: %s", sh.p, sh.q, key[0], HierPhase(key[1]), d)
			}
		}
	}
}

// TestPanickedRunDropsPendingOps: a run that panics lands nothing more.
// Its pending ops stay unlanded — its views hold what they held when
// it died — and the next Gather on the same DESRun drops them, so they
// reach neither that run's views nor the dead run's.
func TestPanickedRunDropsPendingOps(t *testing.T) {
	const p, n = 8, 64
	net, m := sunwayQ(4), topology.AdjacentMapping{Q: 4}
	inputs := padded(intInputs(p, n))
	run := replayRun(p, replayConfig{tile: 16, window: math.MaxInt})
	cl := des.NewCluster(net, m, p)

	dead := cloneViews(inputs)
	before := cloneViews(dead)
	func() {
		defer func() {
			if rp, ok := recover().(des.RankPanic); !ok || rp.Rank != 3 {
				t.Fatalf("recovered %v, want a RankPanic on rank 3", rp)
			}
		}()
		run.Gather(cl, Pool{}, func(r *des.Rank) {
			k := (*des.Rank).Finish
			if r.Rank == 3 {
				k = func(*des.Rank, []float32) { panic("boom") }
			}
			schedRHD.RunDES(run, r, dead[r.Rank], 0, n, nil, k)
		})
	}()
	if d := sameBits(dead, before); d != "" {
		t.Fatalf("the dead run's views moved: %s", d)
	}
	if len(run.log.ops) == 0 {
		t.Fatal("the dead run left no pending op: the test no longer kills it mid-log")
	}

	data := cloneViews(inputs)
	_, outs := run.Gather(cl, Pool{}, func(r *des.Rank) {
		schedRHD.RunDES(run, r, data[r.Rank], 0, n, nil, (*des.Rank).Finish)
	})
	sum := make([]float32, n)
	for _, in := range inputs {
		for i, v := range in {
			sum[i] += v
		}
	}
	for r, out := range outs {
		if !slices.Equal(out, sum) {
			t.Fatalf("rank %d after the panic: %v, want the exact sum %v", r, out, sum)
		}
	}
	if d := sameBits(dead, before); d != "" {
		t.Fatalf("the dead run's pending ops landed later: %s", d)
	}
}
