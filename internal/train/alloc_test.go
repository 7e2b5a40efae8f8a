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

// TestDESOverlapStepAllocationBudget holds a warm p = 64 DES overlap
// step to one object per rank per bucket. At two buckets and
// GOMAXPROCS 4 a step measures 97 objects — 0.8 per rank per bucket —
// for every schedule: the Event of each rank's pass launch, 64, and 33
// that do not grow with p (the failure signal, the pass pool's
// goroutines, and per flush the collective's state and continuations).
// Nothing is per round or per message: one such object would add 12
// or more (RHD runs 12 exchanges per rank per flush at p = 64), and the
// same step allocated 95, 134 and 281 per rank per bucket before the
// communication path stopped copying, 22 to 25 while every rank had a
// model of its own, and 2.7 while each launch also built a wrapper, a
// done channel and a wait list and each rank a hand-back closure.
// GOMAXPROCS is pinned because every pool goroutine a flush starts
// costs an object: at GOMAXPROCS 16 the step measures 145.
func TestDESOverlapStepAllocationBudget(t *testing.T) {
	const p, perRankPerBucket = 64, 1
	netw := topology.Sunway()
	netw.SupernodeSize = 8
	ds := dataset.NewClusters(2000, 3, 1, 3, 3, 0.4, 23)
	withGOMAXPROCS(4, func() {
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
			nb := len(d.LastStep.Buckets)
			if nb != 2 {
				t.Fatalf("%s: %d buckets, want 2", alg, nb)
			}
			if got := testing.AllocsPerRun(3, step); got > float64(perRankPerBucket*p*nb) {
				t.Errorf("%s: %v allocations per warm step = %.1f per rank per bucket, budget %d",
					alg, got, got/float64(p*nb), perRankPerBucket)
			}
			d.Close()
		}
	})
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

// allocBytes is the heap bytes one call of step allocates (as in
// internal/allreduce's tests).
func allocBytes(step func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
