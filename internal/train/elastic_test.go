package train

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/elastic"
)

// Elastic goldens: checkpoint/restore is bit-exact, a killed rank
// shrinks the world and training continues hex-identically to a
// fresh p'-world restored from the same checkpoint, and plan
// selection re-runs for the new shape. The goldens that inject faults
// drive elasticModes: the pooled path alone, because the DES backend
// rejects fault plans and the goroutine backend is the failure oracle.

var elasticModes = distPaths[:1]

// stepRecover runs one Step, converting a panic into a value.
func stepRecover(d *DistTrainer) (loss float32, pan any) {
	defer func() { pan = recover() }()
	loss = d.Step()
	return loss, nil
}

// victims identifies the failed ranks after a recovered Step: pass
// failures via FailedRanks (poisoned pass streams),
// collective failures via the rank the panic value carries.
func victims(d *DistTrainer, pan any) []int {
	if failed := d.FailedRanks(); len(failed) > 0 {
		return failed
	}
	if r, ok := elastic.FailedRank(pan); ok {
		return []int{r}
	}
	return nil
}

// requireSameState compares two trainers through their checkpoints —
// step counter, solver iteration, every parameter and every momentum
// buffer — bit for bit.
func requireSameState(t *testing.T, label string, a, b *DistTrainer) {
	t.Helper()
	ca, cb := a.Checkpoint(), b.Checkpoint()
	if ca.Step != cb.Step || ca.SolverIter != cb.SolverIter {
		t.Fatalf("%s: counters diverged: step %d/%d solver %d/%d",
			label, ca.Step, cb.Step, ca.SolverIter, cb.SolverIter)
	}
	requireSameBlobs(t, label+": params", ca.Params, cb.Params)
	requireSameBlobs(t, label+": history", ca.History, cb.History)
	if d := a.ParamsDiverged(); d != 0 {
		t.Fatalf("%s: replicas of the first trainer diverged by %g", label, d)
	}
	if d := b.ParamsDiverged(); d != 0 {
		t.Fatalf("%s: replicas of the second trainer diverged by %g", label, d)
	}
}

func requireSameBlobs(t *testing.T, label string, a, b []elastic.Blob) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d blobs vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Data) != len(b[i].Data) {
			t.Fatalf("%s: blob %d shape mismatch: %s[%d] vs %s[%d]",
				label, i, a[i].Name, len(a[i].Data), b[i].Name, len(b[i].Data))
		}
		for j := range a[i].Data {
			if math.Float32bits(a[i].Data[j]) != math.Float32bits(b[i].Data[j]) {
				t.Fatalf("%s: %s elem %d: %08x != %08x (must be hex-identical)",
					label, a[i].Name, j,
					math.Float32bits(a[i].Data[j]), math.Float32bits(b[i].Data[j]))
			}
		}
	}
}

func mustParseFaultPlan(t *testing.T, spec string) *elastic.FaultPlan {
	t.Helper()
	p, err := elastic.ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShrinkContinueGolden is the acceptance golden: at p = 8 rank 3
// is killed at step 5 inside the collective (flush of bucket 0), the
// world shrinks to p' = 7, the last checkpoint is restored, and
// training continues. The final state must be hex-identical to a
// fresh 7-rank trainer restored from the same checkpoint and trained
// over the same iterations.
func TestShrinkContinueGolden(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(2000, classes, 1, 8, 8, 0.4, 61)
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	for _, mode := range elasticModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			d, err := NewDistTrainer(DistConfig{Nodes: 8, SubBatch: 4, Solver: cfg,
				Overlap: true, BucketBytes: 8 << 10, Backend: mode.backend,
				Faults: mustParseFaultPlan(t, "3@5:flush-bucket-0")},
				deepFactory(4, classes))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			for d.Iter() < 5 {
				d.LoadShards(ds, d.Iter())
				if _, pan := stepRecover(d); pan != nil {
					t.Fatalf("iter %d failed before the planned fault: %v", d.Iter(), pan)
				}
			}
			ckpt := d.Checkpoint()

			// Step 5: rank 3 dies reducing bucket 0.
			d.LoadShards(ds, 5)
			_, pan := stepRecover(d)
			if pan == nil {
				t.Fatal("planned fault did not fire")
			}
			if got := victims(d, pan); !reflect.DeepEqual(got, []int{3}) {
				t.Fatalf("victims %v (panic %v), want [3]", got, pan)
			}
			if err := d.Shrink(3); err != nil {
				t.Fatal(err)
			}
			if err := d.Restore(ckpt); err != nil {
				t.Fatal(err)
			}

			var contLoss []float32
			for d.Iter() < 9 {
				d.LoadShards(ds, d.Iter())
				loss, pan := stepRecover(d)
				if pan != nil {
					t.Fatalf("post-shrink iter %d failed: %v", d.Iter(), pan)
				}
				contLoss = append(contLoss, loss)
			}

			// A fresh p' = 7 trainer restored from the same checkpoint
			// must reproduce the continuation bit for bit.
			fresh, err := NewDistTrainer(DistConfig{Nodes: 7, SubBatch: 4, Solver: cfg,
				Overlap: true, BucketBytes: 8 << 10, Backend: mode.backend},
				deepFactory(4, classes))
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if err := fresh.Restore(ckpt); err != nil {
				t.Fatal(err)
			}
			var freshLoss []float32
			for fresh.Iter() < 9 {
				fresh.LoadShards(ds, fresh.Iter())
				freshLoss = append(freshLoss, fresh.Step())
			}
			for i := range contLoss {
				if math.Float32bits(contLoss[i]) != math.Float32bits(freshLoss[i]) {
					t.Fatalf("step %d loss diverged: %v vs %v", 5+i, contLoss[i], freshLoss[i])
				}
			}
			requireSameState(t, "shrink-continue vs fresh p'=7", d, fresh)
		})
	}
}

// TestCheckpointResumeBitIdentical: save at step 5, restore into a
// brand-new trainer through the on-disk format, train 5 more — the
// result is hex-identical to a trainer that ran 10 steps without
// stopping. The sampler variant checkpoints the batch-RNG cursor so
// the resumed trainer consumes the identical sample stream.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	const classes, nodes = 3, 4
	ds := dataset.NewClusters(2000, classes, 1, 3, 3, 0.4, 17)
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	build := func() (*DistTrainer, error) {
		return NewDistTrainer(DistConfig{Nodes: nodes, SubBatch: 2, Solver: cfg}, mlpFactory(2, classes))
	}

	t.Run("shards", func(t *testing.T) {
		straight, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for straight.Iter() < 10 {
			straight.LoadShards(ds, straight.Iter())
			straight.Step()
		}

		half, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for half.Iter() < 5 {
			half.LoadShards(ds, half.Iter())
			half.Step()
		}
		path := filepath.Join(t.TempDir(), "ckpt", "step5.ckpt")
		if err := elastic.Save(path, half.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		st, err := elastic.Load(path)
		if err != nil {
			t.Fatal(err)
		}

		resumed, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Restore(st); err != nil {
			t.Fatal(err)
		}
		if resumed.Iter() != 5 {
			t.Fatalf("restored Iter %d, want 5", resumed.Iter())
		}
		for resumed.Iter() < 10 {
			resumed.LoadShards(ds, resumed.Iter())
			resumed.Step()
		}
		requireSameState(t, "resumed vs straight-through", resumed, straight)
	})

}

// TestShrinkReselectsPlan: an auto-plan trainer that picked the
// hierarchical schedule at p = 4 (two supernodes of q = 2) must
// re-run plan selection after shrinking to p' = 2 — a single
// supernode, where the hierarchy is degenerate and the selector's
// documented tie-break falls back to flat RHD. Two identical
// trainers prove the re-selection is deterministic.
func TestShrinkReselectsPlan(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(2000, classes, 1, 3, 3, 0.4, 67)
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	netw, mapping := hierNet(2)
	build := func() *DistTrainer {
		d, err := NewDistTrainer(DistConfig{Nodes: 4, SubBatch: 2, Solver: cfg,
			Network: netw, Mapping: mapping, AlgorithmName: "auto", Overlap: true},
			wideFactory(2, classes))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := build(), build()
	defer a.Close()
	defer b.Close()
	pair := []*DistTrainer{a, b}

	for it := 0; it < 2; it++ {
		for _, d := range pair {
			d.LoadShards(ds, d.Iter())
			d.Step()
		}
	}
	for _, d := range pair {
		if got := d.Engine().StrategyName(); got != allreduce.NameHierarchical {
			t.Fatalf("p=4 auto plan picked %q, want hierarchical", got)
		}
	}

	ckpt := a.Checkpoint()
	for _, d := range pair {
		if err := d.Shrink(2, 3); err != nil {
			t.Fatal(err)
		}
		if err := d.Restore(ckpt); err != nil {
			t.Fatal(err)
		}
	}
	for it := 0; it < 2; it++ {
		for _, d := range pair {
			d.LoadShards(ds, d.Iter())
			d.Step()
		}
	}
	pa, pb := a.Engine().Plan(), b.Engine().Plan()
	if pa == nil || pb == nil {
		t.Fatal("shrunk auto trainer recorded no plan")
	}
	if got := a.Engine().StrategyName(); got != allreduce.NameRHD {
		t.Fatalf("p'=2 <= q auto plan picked %q, want flat %q", got, allreduce.NameRHD)
	}
	if pa.Algorithm != pb.Algorithm || pa.BucketBytes != pb.BucketBytes {
		t.Fatalf("re-selection nondeterministic: (%s,%d) vs (%s,%d)",
			pa.Algorithm, pa.BucketBytes, pb.Algorithm, pb.BucketBytes)
	}
	requireSameState(t, "twin shrunk auto trainers", a, b)
}

// TestPassFaultRecoverContinuesClean injects a fault into every pass
// phase (forward, backward, pack) and the collective flush, on both
// step variants. Each time: the Step
// panics, the victim is identifiable, and — because the failure path
// quiesces in-flight passes and never applies a partial update — the
// same full-size world simply retries the iteration and finishes
// hex-identical to a twin that never faulted.
func TestPassFaultRecoverContinuesClean(t *testing.T) {
	const classes, nodes = 3, 4
	ds := dataset.NewClusters(2000, classes, 1, 3, 3, 0.4, 11)
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	cases := []struct {
		name    string
		fault   string
		victim  int
		overlap bool
	}{
		{"barrier-forward", "2@1:forward", 2, false},
		{"barrier-pack", "1@1:pack", 1, false},
		{"barrier-flush", "2@1:flush", 2, false},
		{"overlap-backward", "2@1:backward", 2, true},
		{"overlap-pack", "1@1:pack", 1, true},
		{"overlap-flush", "2@1:flush", 2, true},
	}
	for _, mode := range elasticModes {
		for _, tc := range cases {
			mode, tc := mode, tc
			t.Run(mode.name+"/"+tc.name, func(t *testing.T) {
				fp := mustParseFaultPlan(t, tc.fault)
				build := func(faults *elastic.FaultPlan) *DistTrainer {
					d, err := NewDistTrainer(DistConfig{Nodes: nodes, SubBatch: 2,
						Solver: cfg, Overlap: tc.overlap, BucketBytes: 8 << 10,
						Backend: mode.backend, Faults: faults}, mlpFactory(2, classes))
					if err != nil {
						t.Fatal(err)
					}
					return d
				}
				d, twin := build(fp), build(nil)
				defer d.Close()
				defer twin.Close()

				sawFault := false
				for d.Iter() < 3 {
					d.LoadShards(ds, d.Iter())
					_, pan := stepRecover(d)
					if pan == nil {
						continue
					}
					sawFault = true
					if got := victims(d, pan); !reflect.DeepEqual(got, []int{tc.victim}) {
						t.Fatalf("victims %v (panic %v), want [%d]", got, pan, tc.victim)
					}
					// Retry the same iteration on the full world.
				}
				if !sawFault {
					t.Fatal("planned fault did not fire")
				}
				if fp.Pending() != 0 {
					t.Fatalf("%d planned faults never fired", fp.Pending())
				}
				for twin.Iter() < 3 {
					twin.LoadShards(ds, twin.Iter())
					twin.Step()
				}
				requireSameState(t, "recovered vs fault-free twin", d, twin)
			})
		}
	}
}

// TestHierarchicalFaultRecover: a rank killed while reducing a bucket
// under the *hierarchical* overlapped schedule (p=6, two-rank
// supernodes) recovers exactly like the flat case — quiesce, retry,
// hex-identical to the fault-free twin. Together with the allreduce
// package's per-phase kill tests this covers the hierarchical
// schedule's failure surface end to end.
func TestHierarchicalFaultRecover(t *testing.T) {
	const classes, nodes = 3, 6
	ds := dataset.NewClusters(2000, classes, 1, 8, 8, 0.4, 61)
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	netw, mapping := hierNet(2)
	build := func(faults *elastic.FaultPlan) *DistTrainer {
		d, err := NewDistTrainer(DistConfig{Nodes: nodes, SubBatch: 4, Solver: cfg,
			Network: netw, Mapping: mapping,
			AlgorithmName: allreduce.NameHierarchical, Overlap: true,
			BucketBytes: 8 << 10, Faults: faults}, deepFactory(4, classes))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := build(mustParseFaultPlan(t, "4@2:flush-bucket-0"))
	twin := build(nil)
	defer d.Close()
	defer twin.Close()

	sawFault := false
	for d.Iter() < 4 {
		d.LoadShards(ds, d.Iter())
		_, pan := stepRecover(d)
		if pan == nil {
			continue
		}
		sawFault = true
		if got := victims(d, pan); !reflect.DeepEqual(got, []int{4}) {
			t.Fatalf("victims %v (panic %v), want [4]", got, pan)
		}
	}
	if !sawFault {
		t.Fatal("planned fault did not fire")
	}
	for twin.Iter() < 4 {
		twin.LoadShards(ds, twin.Iter())
		twin.Step()
	}
	requireSameState(t, "hierarchical recovered vs twin", d, twin)
}

// TestShrinkValidation: the shrink protocol refuses malformed victim
// lists loudly instead of corrupting the world.
func TestShrinkValidation(t *testing.T) {
	const classes = 3
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	d, err := NewDistTrainer(DistConfig{Nodes: 4, SubBatch: 2, Solver: cfg}, mlpFactory(2, classes))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{{}, {4}, {-1}, {1, 1}, {0, 1, 2, 3}} {
		if err := d.Shrink(bad...); err == nil {
			t.Fatalf("Shrink(%v) accepted", bad)
		}
	}
	if err := d.Shrink(3); err != nil {
		t.Fatal(err)
	}
	if len(d.Workers) != 3 {
		t.Fatalf("world size %d after shrink, want 3", len(d.Workers))
	}
	for i, w := range d.Workers {
		if w.Rank != i {
			t.Fatalf("survivor %d has rank %d, want dense re-ranking", i, w.Rank)
		}
	}
}
