package collective

import (
	"fmt"
	"math"
	"testing"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/des"
	"swcaffe/internal/detrand"
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// TestPaddedBucketsSpillOnlyIntoCommittedMemory: a flush reduces its
// bucket where it lies in the rank's view, and flat RHD at p = 8 pads a
// bucket to a multiple of 8 inside the view — past the bucket's Hi, over
// buckets flushed earlier in the step and the slack past the packed
// vector (see Bucket). The layout here makes every bucket pad and the
// tail buckets smaller than the pad:
//
//	[0,1001) pads 7 over [1001,1008)    inside the next bucket
//	[1001,1012) pads 5 over [1012,1017) exactly the next bucket
//	[1012,1017) pads 3 over [1017,1020) exactly the next bucket
//	[1017,1020) pads 5 over [1020,1025) the last bucket and the slack
//	[1020,1021) pads 7 over [1021,1028) all slack, to its last element
//
// On both backends the step — each layer produced by every rank, then
// whatever became ready flushed and committed, tail first — must drain,
// at each Commit, exactly what the one-shot RecursiveHalvingDoubling
// over the whole packed vector returns, bit for bit on every rank: with
// one bucket per layer, and with the barrier's one bucket.
func TestPaddedBucketsSpillOnlyIntoCommittedMemory(t *testing.T) {
	const ranks = 8
	sizes := []int{1001, 11, 5, 3, 1}
	params := make([]ParamInfo, len(sizes))
	for i, n := range sizes {
		params[i] = ParamInfo{Layer: i, Elems: n}
	}
	cfg := testConfig(params, len(sizes), ranks, allreduce.NameRHD)
	cfg.BucketBytes = 4 // one bucket per layer
	netw, mapping := cfg.Network, topology.RoundRobinMapping{Q: cfg.Network.SupernodeSize}

	rng := detrand.New(22)
	diffs := make([][][]float32, ranks) // [rank][param]
	packed := make([][]float32, ranks)
	for r := range diffs {
		for _, n := range sizes {
			d := make([]float32, n)
			for i := range d {
				d[i] = 2*rng.Float32() - 1
			}
			diffs[r] = append(diffs[r], d)
			packed[r] = append(packed[r], d...)
		}
	}
	_, sums := simnet.NewCluster(netw, mapping, ranks).RunGather(func(n *simnet.Node) []float32 {
		return allreduce.RecursiveHalvingDoubling(n, packed[n.Rank])
	})
	inv := float32(1) / ranks
	// requireDrained compares the [lo, hi) range of every rank's
	// gradients with the average of the one-shot sums.
	requireDrained := func(label string, grads [][][]float32, lo, hi int) {
		t.Helper()
		for r := range grads {
			off := 0
			for pi, g := range grads[r] {
				for i, v := range g {
					if at := off + i; lo <= at && at < hi && math.Float32bits(v) != math.Float32bits(sums[r][at]*inv) {
						t.Fatalf("%s: rank %d param %d elem %d (packed %d) = %v, want %v", label, r, pi, i, at, v, sums[r][at]*inv)
					}
				}
				off += len(g)
			}
		}
	}
	newGrads := func() [][][]float32 {
		grads := make([][][]float32, ranks)
		for r := range grads {
			for _, n := range sizes {
				grads[r] = append(grads[r], make([]float32, n))
			}
		}
		return grads
	}

	type backend struct {
		name  string
		flush func(e *Engine, b int) (topology.Result, [][]float32)
	}
	scl, dcl := simnet.NewCluster(netw, mapping, ranks), des.NewCluster(netw, mapping, ranks)
	pool := allreduce.Pool{K: 2, Run: backwardPool}
	barrier := cfg
	barrier.Barrier = true
	for _, be := range []backend{
		{"goroutine", func(e *Engine, b int) (topology.Result, [][]float32) {
			views := e.RankViews()
			return scl.RunGather(func(n *simnet.Node) []float32 { return e.ReduceSeg(n, b, views[n.Rank]) })
		}},
		{"DES", func(e *Engine, b int) (topology.Result, [][]float32) { return e.FlushSegDES(dcl, b, pool) }},
	} {
		for _, mode := range []struct {
			name    string
			cfg     Config
			buckets int
		}{{"barrier", barrier, 1}, {"overlap", cfg, len(sizes)}} {
			e, err := New(mode.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if nb := len(e.Buckets()); nb != mode.buckets {
				t.Fatalf("%s: %d buckets, want %d: %+v", mode.name, nb, mode.buckets, e.Buckets())
			}
			for step := 0; step < 2; step++ { // the second over views the first left full of sums and pads
				label := fmt.Sprintf("%s %s step %d", be.name, mode.name, step)
				grads := newGrads()
				e.BeginStep()
				b := 0
				for li := len(sizes) - 1; li >= 0; li-- {
					for r := range diffs {
						e.Produce(r, li, diffs[r])
					}
					for ; b < len(e.Buckets()) && e.Buckets()[b].ReadyLayer == li; b++ {
						<-e.Ready(b)
						res, outs := be.flush(e, b)
						e.Commit(b, outs, res, grads, pool)
						bk := e.Buckets()[b]
						requireDrained(fmt.Sprintf("%s bucket %d %+v at its commit", label, b, bk), grads, bk.Lo, bk.Hi)
					}
				}
				if b != len(e.Buckets()) {
					t.Fatalf("%s: flushed %d of %d buckets", label, b, len(e.Buckets()))
				}
				requireDrained(label, grads, 0, e.TotalElems())
			}
		}
	}
}

// TestFlushSegDESPanicDropsItsRun: a DES flush lands its payload from a
// log after the run (see allreduce.DESRun), and one that panics — here
// the fault hook of rank 4, after ranks 0 to 3 have started and logged —
// takes its DESRun and the ops it had not landed with it, as a panicked
// des.Cluster run takes its state. The next flush builds a fresh one,
// lands exact sums, and keeps it.
func TestFlushSegDESPanicDropsItsRun(t *testing.T) {
	const ranks = 6
	params := []ParamInfo{{Layer: 0, Elems: 37}, {Layer: 1, Elems: 20}}
	cfg := testConfig(params, 2, ranks, allreduce.NameHierarchical)
	cfg.Barrier = true
	cfg.Mapping = topology.AdjacentMapping{Q: 3}
	armed := true
	cfg.FlushHook = func(rank, _ int) {
		if armed && rank == 4 {
			panic("boom")
		}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dcl := des.NewCluster(cfg.Network, cfg.Mapping, ranks)
	pool := allreduce.Pool{K: 2, Run: backwardPool}
	fill := func() {
		for r, v := range e.RankViews() {
			for i := range v {
				v[i] = float32(r*7 + i%11)
			}
		}
	}
	fill()
	func() {
		defer func() {
			if rp, ok := recover().(des.RankPanic); !ok || rp.Rank != 4 {
				t.Fatalf("recovered %v, want a RankPanic on rank 4", rp)
			}
		}()
		e.FlushSegDES(dcl, 0, pool)
	}()
	if e.desRun != nil {
		t.Fatal("the engine kept the DESRun of a flush that panicked")
	}
	armed = false
	fill()
	_, outs := e.FlushSegDES(dcl, 0, pool)
	for r, out := range outs {
		for i, v := range out {
			var want float32
			for s := 0; s < ranks; s++ {
				want += float32(s*7 + i%11)
			}
			if v != want {
				t.Fatalf("rank %d elem %d after the panic: %v, want the exact sum %v", r, i, v, want)
			}
		}
	}
	if e.desRun == nil {
		t.Fatal("the engine dropped the DESRun of a clean flush")
	}
}
