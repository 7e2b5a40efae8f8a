package train

import (
	"runtime"
	"testing"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/tensor"
	"swcaffe/internal/topology"
)

// TestDESOverlapStepAllocationBudget holds a warm DES overlap step,
// shard loads from a dataset read once before included, to no
// allocation at all, whatever p and the pass pool's size: at p = 64 and
// 256, GOMAXPROCS 1, 4 and 16 and two buckets, every schedule's step
// measures 0. Nothing is per rank — a pass launch reuses its node's
// launch record, the hand-back is bound once per trainer, and the
// pool's workers start with the trainer and are handed closures bound
// once — nothing is per round or per message, and a flush's result
// keeps the cluster's clocks instead of copying them. The same p = 64
// step allocated 95, 134 and 281 objects per rank per bucket before the
// communication path stopped copying, 22 to 25 while every rank had a
// model of its own, 97 objects at GOMAXPROCS 4 (145 at 16) while each
// launch allocated its Event and each pool call started its goroutines,
// and 2 while each flush copied the clocks.
func TestDESOverlapStepAllocationBudget(t *testing.T) {
	const budget = 0
	netw := topology.Sunway()
	netw.SupernodeSize = 8
	ds := readOnce(dataset.NewClusters(2000, 3, 1, 3, 3, 0.4, 23))
	for _, procs := range []int{1, 4, 16} {
		withGOMAXPROCS(procs, func() {
			for _, p := range []int{64, 256} {
				for _, alg := range []string{allreduce.NameRHD, allreduce.NameHierarchical, allreduce.NameRing} {
					cfg := desTwinConfig(p, netw, topology.AdjacentMapping{Q: 8}, alg, true, BackendDES)
					cfg.BucketBytes = 64 // one bucket per parameter layer of the test MLP
					d, err := NewDistTrainer(cfg, mlpFactory(cfg.SubBatch, 3))
					if err != nil {
						t.Fatal(err)
					}
					it := 0
					step := func() {
						d.LoadShards(ds, it)
						d.Step()
						it++
					}
					step() // builds the engine, its views and the links
					step()
					if nb := len(d.LastStep.Buckets); nb != 2 {
						t.Fatalf("%s: %d buckets, want 2", alg, nb)
					}
					if got := testing.AllocsPerRun(3, step); got > budget {
						t.Errorf("GOMAXPROCS %d, p = %d, %s: %v allocations per warm step, budget %d",
							procs, p, alg, got, budget)
					}
					d.Close()
				}
			}
		})
	}
}

// TestDESTrainerLifeAllocationSlope bounds what a DES trainer's life
// up to its first step — NewDistTrainer and one LoadShards and Step —
// allocates per rank: the growth from p = 64 to 256, over the 192 ranks
// added, is at most 3 objects per rank under RHD and the ring. A rank's
// node, worker, stream, launch record and shard tensors come from slabs
// of the cluster and the trainer; what remains per rank is the
// collective's: the rank's packed view and its continuation state
// (measured 2.6), plus the dataset table chunks its first shard load
// fills (one per 16 examples: 1/4 at 4 per rank). It was 11.4 (RHD)
// and 11.6 (ring) while each rank had a node, stream, worker,
// hand-back closure and shard tensors of its own. The hierarchical
// schedule's figure is logged (5.1 measured, 14.2 before): its
// leaders' arenas grow with p too.
func TestDESTrainerLifeAllocationSlope(t *testing.T) {
	const budget = 3.0
	netw := topology.Sunway()
	netw.SupernodeSize = 8
	ds := dataset.NewClusters(2000, 3, 1, 3, 3, 0.4, 23)
	life := func(p int, alg string) uint64 {
		cfg := desTwinConfig(p, netw, topology.AdjacentMapping{Q: 8}, alg, true, BackendDES)
		cfg.BucketBytes = 64
		var d *DistTrainer
		n := mallocs(func() {
			var err error
			if d, err = NewDistTrainer(cfg, mlpFactory(cfg.SubBatch, 3)); err != nil {
				t.Fatal(err)
			}
			d.LoadShards(ds, 0)
			d.Step()
		})
		d.Close()
		return n
	}
	for _, alg := range []string{allreduce.NameRHD, allreduce.NameRing, allreduce.NameHierarchical} {
		small, large := life(64, alg), life(256, alg)
		slope := (float64(large) - float64(small)) / (256 - 64)
		t.Logf("%s: %d objects at p = 64, %d at p = 256: %.2f per added rank", alg, small, large, slope)
		if alg != allreduce.NameHierarchical && slope > budget {
			t.Errorf("%s: a DES trainer's life allocates %.2f objects per added rank, budget %.0f", alg, slope, budget)
		}
	}
}

// budgetFactory is a two-layer MLP whose packed gradient (about 0.56 MB,
// nearly all of it fc1's) dwarfs everything a step allocates besides:
// the byte budgets below hold a whole step, every rank included, under
// a quarter of one rank's packed gradient.
func budgetFactory(batch, classes int) func() (*core.Net, map[string]*tensor.Tensor, error) {
	return func() (*core.Net, map[string]*tensor.Tensor, error) {
		net := core.NewNet("budget", "data", "label")
		net.AddLayers(
			core.NewInnerProduct(core.InnerProductConfig{
				Name: "fc1", Bottom: "data", Top: "fc1", NumOutput: 2048, BiasTerm: true}),
			core.NewReLU("relu", "fc1", "fc1", 0),
			core.NewInnerProduct(core.InnerProductConfig{
				Name: "fc2", Bottom: "fc1", Top: "fc2", NumOutput: classes, BiasTerm: true}),
			core.NewSoftmaxLoss("loss", "fc2", "label", "loss"),
		)
		inputs := map[string]*tensor.Tensor{
			"data":  tensor.New(batch, 1, 8, 8),
			"label": tensor.New(batch, 1, 1, 1),
		}
		if err := net.Setup(inputs); err != nil {
			return nil, nil, err
		}
		return net, inputs, nil
	}
}

// TestWarmStepAllocatesNoGradientVector: the gradient is reduced in the
// ranks' packed views and drained at commit, so a warm Step — all
// ranks together — allocates less than a quarter of one packed gradient
// (MemStats.TotalAlloc, the benchmark's host_alloc_bytes_per_op), where
// it used to allocate one per rank: the p = 8 overlap and barrier steps
// of the goroutine backend and the p = 64 overlap step of the DES
// backend (measured 10.7 kB, 5.6 kB and 93.6 kB against 557 kB).
func TestWarmStepAllocatesNoGradientVector(t *testing.T) {
	netw := topology.Sunway()
	netw.SupernodeSize = 8
	ds := dataset.NewClusters(2000, 3, 1, 8, 8, 0.4, 23)
	for _, c := range []struct {
		name    string
		p       int
		overlap bool
		backend string
		warm    int // steps until nothing is left to set up
	}{
		// A pooled node warms its four core groups one pass at a time.
		{"goroutine overlap", 8, true, BackendGoroutine, 6},
		{"goroutine barrier", 8, false, BackendGoroutine, 6},
		{"DES overlap", 64, true, BackendDES, 2},
	} {
		cfg := desTwinConfig(c.p, netw, topology.AdjacentMapping{Q: 8}, allreduce.NameRHD, c.overlap, c.backend)
		d, err := NewDistTrainer(cfg, budgetFactory(cfg.SubBatch, 3))
		if err != nil {
			t.Fatal(err)
		}
		it := 0
		step := func() {
			d.LoadShards(ds, it)
			d.Step()
			it++
		}
		for i := 0; i < c.warm; i++ { // the engine, its views, the links
			step()
		}
		if c.overlap && len(d.LastStep.Buckets) < 2 {
			t.Fatalf("%s: %d buckets, want an overlapped flush", c.name, len(d.LastStep.Buckets))
		}
		grad := uint64(d.Engine().TotalElems()) * 4
		if got := allocBytes(step); got >= grad/4 {
			t.Errorf("%s p=%d: a warm step allocated %d bytes, budget a quarter of the %d-byte packed gradient", c.name, c.p, got, grad)
		}
		d.Close()
	}
}

// scaleFactory is the functional-scaling net the benchmark's training
// workloads use (bench/net.go): conv 8x3x3 pad 1 → ReLU → fc 64 → ReLU
// → fc classes on 1x8x8 inputs, about 33 k parameters.
func scaleFactory(batch, classes int) func() (*core.Net, map[string]*tensor.Tensor, error) {
	return func() (*core.Net, map[string]*tensor.Tensor, error) {
		net := core.NewNet("funcscale", "data", "label")
		net.AddLayers(
			core.NewConv(core.ConvConfig{Name: "conv1", Bottom: "data", Top: "conv1",
				NumOutput: 8, Kernel: 3, Stride: 1, Pad: 1, BiasTerm: true}),
			core.NewReLU("relu1", "conv1", "conv1", 0),
			core.NewInnerProduct(core.InnerProductConfig{
				Name: "fc1", Bottom: "conv1", Top: "fc1", NumOutput: 64, BiasTerm: true}),
			core.NewReLU("relu2", "fc1", "fc1", 0),
			core.NewInnerProduct(core.InnerProductConfig{
				Name: "fc2", Bottom: "fc1", Top: "fc2", NumOutput: classes, BiasTerm: true}),
			core.NewSoftmaxLoss("loss", "fc2", "label", "loss"),
		)
		inputs := map[string]*tensor.Tensor{
			"data":  tensor.New(batch, 1, 8, 8),
			"label": tensor.New(batch, 1, 1, 1),
		}
		if err := net.Setup(inputs); err != nil {
			return nil, nil, err
		}
		return net, inputs, nil
	}
}

// TestDESTrainerAllocatesOneModelPerPoolWorker: the ranks of a DES
// cluster share k = min(GOMAXPROCS, p) models, one per worker of the
// pass pool, and every flush reduces in the rank's packed view, so the
// whole life of a trainer on the benchmark's net — New, two steps,
// Close — allocates k models (a net and its solver history each) and,
// per rank, less than 1.25 packed gradients: the view, which is input
// and result of every collective, and the rank's links, node and shard
// tensors. Measured 1.09 to 1.10, barrier and overlap, p = 64 and 256,
// at k = 1, 2, 4 and 8 (CI runs -cpu 1,2,4). It was 2.2 while the
// interpreters copied the view into an arena result vector before
// reducing it, and 5.5 with a private replica per rank (parameters,
// gradients, activations, momentum history).
func TestDESTrainerAllocatesOneModelPerPoolWorker(t *testing.T) {
	build := scaleFactory(8, 4)
	solver := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	oneModel := allocBytes(func() {
		w, err := newReplica(solver, build)
		if err != nil {
			t.Fatal(err)
		}
		w.Solver.ApplyUpdate() // allocates the momentum history
	})
	ds := dataset.NewClusters(4096, 4, 1, 8, 8, 0.35, 23)
	for _, c := range []struct {
		p       uint64
		overlap bool
	}{{64, false}, {64, true}, {256, true}} {
		cfg := DistConfig{Nodes: int(c.p), SubBatch: 8, Solver: solver,
			Backend: BackendDES, Overlap: c.overlap, BucketBytes: 8 << 10}
		k := uint64(min(runtime.GOMAXPROCS(0), cfg.Nodes))
		var grad uint64
		got := allocBytes(func() {
			d, err := NewDistTrainer(cfg, build)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for it := 0; it < 2; it++ {
				d.LoadShards(ds, it)
				d.Step()
			}
			grad = uint64(d.Engine().TotalElems()) * 4
		})
		if budget := c.p*grad*5/4 + k*oneModel; got >= budget {
			t.Errorf("p=%d overlap=%v: a DES trainer's life allocated %d bytes = %.2f packed gradients (%d bytes) per rank, budget 1.25 and %d models (%d bytes each)",
				c.p, c.overlap, got, float64(got-k*oneModel)/float64(c.p*grad), grad, k, oneModel)
		}
	}
}

// readOnce loads every example of ds once, so that its table is
// filled: the first load of an example allocates its table chunk
// (dataset.TestExampleAllocations), which is the dataset's allocation,
// not a step's.
func readOnce(ds *dataset.Clusters) *dataset.Clusters {
	c, h, w := ds.Dims()
	buf := make([]float32, c*h*w)
	for i := range ds.Len() {
		ds.Example(i, buf)
	}
	return ds
}

// mallocs is the heap objects one call of fn allocates, on any
// goroutine.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// allocBytes is the heap bytes one call of step allocates (as in
// internal/allreduce's tests).
func allocBytes(step func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCGTrainerWarmStepAllocations pins what a warm 4-CG step
// allocates: 56 objects measured (also under -race), budget 58. The
// pass closures and their losses are bound once by NewCGTrainer and the
// pass events are a stack array. What is left is per launch: each of
// the 4 pass launches allocates its Event and its goroutine's closure
// (2 each), and each of the 12 gradient summations (3 peer CGs × the
// test MLP's 4 parameter blobs) those two, its copy of the deps and
// SumAsync's kernel closure (4 each). SumRun's CPE closure no longer
// escapes: a mesh launch runs it on the caller and keeps no reference.
func TestCGTrainerWarmStepAllocations(t *testing.T) {
	const budget = 58
	cg, err := NewCGTrainer(mlpFactory(4, 3), core.SolverConfig{BaseLR: 0.05, Momentum: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	defer cg.Close()
	ds := readOnce(dataset.NewClusters(1000, 3, 1, 3, 3, 0.4, 14))
	it := 0
	step := func() {
		for i, w := range cg.CGs {
			dataset.Batch(ds, (it*4+i)*4, w.Data, w.Labels)
		}
		cg.Step()
		it++
	}
	step()
	if got := testing.AllocsPerRun(20, step); got > budget {
		t.Errorf("a warm CGTrainer step allocates %v objects, budget %d", got, budget)
	}
}
