package train

import (
	"fmt"
	"math"
	"testing"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/tensor"
	"swcaffe/internal/topology"
)

// The DES backend runs every rank through one shared model; the
// goroutine backend's private replicas are the oracle that this is
// sound. These twins use a net with every kind of per-replica layer
// state — batch-norm running statistics, which each rank folds its own
// shard into, and a dropout RNG cursor, which each rank advances on its
// own — so state shared by mistake, or swapped to the wrong rank, shows
// as a loss, a parameter or a statistic that differs from the private
// replica's.

// statefulFactory is conv 4x3x3 → batch-norm → scale → ReLU → dropout
// 0.3 → fc on 1x4x4 inputs.
func statefulFactory(batch, classes int) func() (*core.Net, map[string]*tensor.Tensor, error) {
	return func() (*core.Net, map[string]*tensor.Tensor, error) {
		net := core.NewNet("stateful", "data", "label")
		net.AddLayers(
			core.NewConv(core.ConvConfig{Name: "conv", Bottom: "data", Top: "conv",
				NumOutput: 4, Kernel: 3, Stride: 1, Pad: 1, BiasTerm: true}),
			core.NewBatchNorm("bn", "conv", "bn"),
			core.NewScale("scale", "bn", "scale"),
			core.NewReLU("relu", "scale", "scale", 0),
			core.NewDropout("drop", "scale", "drop", 0.3),
			core.NewInnerProduct(core.InnerProductConfig{
				Name: "fc", Bottom: "drop", Top: "fc", NumOutput: classes, BiasTerm: true}),
			core.NewSoftmaxLoss("loss", "fc", "label", "loss"),
		)
		inputs := map[string]*tensor.Tensor{
			"data":  tensor.New(batch, 1, 4, 4),
			"label": tensor.New(batch, 1, 1, 1),
		}
		if err := net.Setup(inputs); err != nil {
			return nil, nil, err
		}
		return net, inputs, nil
	}
}

// sharedTwins builds the same trainer on both backends.
func sharedTwins(t *testing.T, p int, overlap bool) (g, d *DistTrainer) {
	t.Helper()
	netw, mapping := hierNet(4)
	build := func(backend string) *DistTrainer {
		cfg := desTwinConfig(p, netw, mapping, allreduce.NameHierarchical, overlap, backend)
		cfg.BucketBytes = 128
		tr, err := NewDistTrainer(cfg, statefulFactory(cfg.SubBatch, 3))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		return tr
	}
	return build(BackendGoroutine), build(BackendDES)
}

// stepTwins runs steps [from, to) on both trainers and requires equal
// loss bits and StepStats at every step, and equal replicas after it.
func stepTwins(t *testing.T, label string, g, d *DistTrainer, ds dataset.Dataset, from, to int) {
	t.Helper()
	for it := from; it < to; it++ {
		g.LoadShards(ds, it)
		d.LoadShards(ds, it)
		lg, ld := g.Step(), d.Step()
		if math.Float32bits(lg) != math.Float32bits(ld) {
			t.Fatalf("%s step %d: loss goroutine %v des %v", label, it, lg, ld)
		}
		if !g.LastStep.Equal(d.LastStep) {
			t.Fatalf("%s step %d: StepStats differ:\ngoroutine %+v\ndes       %+v", label, it, g.LastStep, d.LastStep)
		}
		requireSameReplicas(t, fmt.Sprintf("%s step %d", label, it), g, d)
	}
}

// requireSameReplicas compares every parameter of every rank — the
// learnables and the batch-norm statistics — bit for bit, and the
// divergence reports.
func requireSameReplicas(t *testing.T, label string, g, d *DistTrainer) {
	t.Helper()
	if len(g.Workers) != len(d.Workers) {
		t.Fatalf("%s: world sizes %d and %d", label, len(g.Workers), len(d.Workers))
	}
	for r := range g.Workers {
		pg, pd := g.replica(r).Net.Params(), d.replica(r).Net.Params()
		for i := range pg {
			for j, v := range pg[i].Data.Data {
				if w := pd[i].Data.Data[j]; math.Float32bits(v) != math.Float32bits(w) {
					t.Fatalf("%s: rank %d param %q elem %d: goroutine %v des %v", label, r, pg[i].Name, j, v, w)
				}
			}
		}
	}
	if gd, dd := g.ParamsDiverged(), d.ParamsDiverged(); gd != 0 || dd != 0 {
		t.Fatalf("%s: replicas diverged: goroutine %g des %g", label, gd, dd)
	}
}

// TestDESSharedModelMatchesPrivateReplicas: three steps at p = 4 and 8,
// barrier and overlap.
func TestDESSharedModelMatchesPrivateReplicas(t *testing.T) {
	ds := dataset.NewClusters(2000, 3, 1, 4, 4, 0.4, 29)
	for _, p := range []int{4, 8} {
		for _, overlap := range []bool{false, true} {
			t.Run(fmt.Sprintf("p%d_overlap%v", p, overlap), func(t *testing.T) {
				g, d := sharedTwins(t, p, overlap)
				stepTwins(t, "train", g, d, ds, 0, 3)

				// The comparison means something only if the ranks' state does
				// differ: each has folded different shards into its statistics.
				differ := false
				p0, p1 := g.Workers[0].Net.Params(), g.Workers[1].Net.Params()
				for i, prm := range p0 {
					if prm.LRMult == 0 && tensor.MaxDiff(prm.Data, p1[i].Data) != 0 {
						differ = true
					}
				}
				if !differ {
					t.Fatal("ranks 0 and 1 hold the same batch-norm statistics: nothing tells their replicas apart")
				}
			})
		}
	}
}

// TestDESSharedModelElasticMatchesGoroutine: checkpoint, train on,
// restore and replay; then shrink, restore and continue — the shared
// model follows the private replicas bit for bit through each, and the
// checkpoints the two backends take are equal.
func TestDESSharedModelElasticMatchesGoroutine(t *testing.T) {
	ds := dataset.NewClusters(2000, 3, 1, 4, 4, 0.4, 37)
	for _, overlap := range []bool{false, true} {
		t.Run(fmt.Sprintf("overlap%v", overlap), func(t *testing.T) {
			g, d := sharedTwins(t, 8, overlap)
			stepTwins(t, "before the checkpoint", g, d, ds, 0, 2)
			cg, cd := g.Checkpoint(), d.Checkpoint()
			requireSameBlobs(t, "checkpoint params", cg.Params, cd.Params)
			requireSameBlobs(t, "checkpoint history", cg.History, cd.History)
			stepTwins(t, "past the checkpoint", g, d, ds, 2, 4)

			// Each restores the other's checkpoint: they are the same bits.
			if err := g.Restore(cd); err != nil {
				t.Fatal(err)
			}
			if err := d.Restore(cg); err != nil {
				t.Fatal(err)
			}
			requireSameReplicas(t, "restored", g, d)
			stepTwins(t, "replay", g, d, ds, 2, 4)

			// Ranks 0 and 5 leave: the survivors keep their own statistics
			// and RNG cursors under new rank numbers.
			for _, tr := range []*DistTrainer{g, d} {
				if err := tr.Shrink(0, 5); err != nil {
					t.Fatal(err)
				}
			}
			requireSameReplicas(t, "shrunk", g, d)
			stepTwins(t, "shrunk", g, d, ds, 4, 6)
			if err := g.Restore(cg); err != nil {
				t.Fatal(err)
			}
			if err := d.Restore(cd); err != nil {
				t.Fatal(err)
			}
			stepTwins(t, "shrunk and restored", g, d, ds, 2, 4)
			requireSameState(t, "in the end", g, d)
		})
	}
}

// TestOverlapStepFoldsCommitDivergence: on a shared model there are no
// replicas to compare, so ParamsDiverged reports what the commits found
// between rank 0's reduced gradient and every other rank's — on the
// overlap path too, which used to discard it. A hierarchical flush
// reduces in the ranks' views, so a phase hook can break one: at rank
// 1's allgather boundary it flips one bit of the chunk rank 1 owns and
// is about to hand to its supernode (rank 0 included), which the other
// supernode's ranks receive intact from their own leader. The step must
// report it; the untouched twin must report 0.
func TestOverlapStepFoldsCommitDivergence(t *testing.T) {
	const p, victim = 8, 1
	netw, mapping := hierNet(4) // two supernodes of four
	ds := dataset.NewClusters(2000, 3, 1, 3, 3, 0.4, 31)
	build := func() *DistTrainer {
		cfg := desTwinConfig(p, netw, mapping, allreduce.NameHierarchical, true, BackendDES)
		cfg.BucketBytes = 128
		d, err := NewDistTrainer(cfg, mlpFactory(cfg.SubBatch, 3))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		d.LoadShards(ds, 0)
		d.Step()
		return d
	}
	clean, broken := build(), build()

	eng := broken.Engine()
	buckets := eng.Buckets()
	if len(buckets) < 2 {
		t.Fatalf("%d buckets, want an overlapped flush", len(buckets))
	}
	// The first element of the chunk the victim leads: it sits at index
	// victim of its supernode, under the adjacent mapping.
	at := allreduce.ChunkBounds(eng.TotalElems(), topology.MinGroupSize(mapping, p))[victim]
	flush, flipped := -1, false
	prev := allreduce.SetHierPhaseHook(func(rank int, _ float64, phase allreduce.HierPhase) {
		if rank != victim {
			return
		}
		switch phase {
		case allreduce.HierIntraReduceScatter:
			flush++
		case allreduce.HierAllgather:
			if bk := buckets[flush]; bk.Lo <= at && at < bk.Hi {
				v := &eng.RankViews()[victim][at]
				*v = math.Float32frombits(math.Float32bits(*v) ^ 1)
				flipped = true
			}
		}
	})
	broken.LoadShards(ds, 1)
	broken.Step()
	allreduce.SetHierPhaseHook(prev)
	clean.LoadShards(ds, 1)
	clean.Step()

	if !flipped {
		t.Fatalf("no flush of %d covered element %d", flush+1, at)
	}
	if d := broken.ParamsDiverged(); !(d > 0) {
		t.Errorf("a flush whose ranks disagree went unreported: ParamsDiverged() = %g", d)
	}
	if d := clean.ParamsDiverged(); d != 0 {
		t.Errorf("the untouched twin reports divergence %g", d)
	}
}
