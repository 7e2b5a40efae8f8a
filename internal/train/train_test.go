package train

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/elastic"
	"swcaffe/internal/tensor"
)

func mlpFactory(batch, classes int) func() (*core.Net, map[string]*tensor.Tensor, error) {
	return func() (*core.Net, map[string]*tensor.Tensor, error) {
		net := core.NewNet("mlp", "data", "label")
		net.AddLayers(
			core.NewInnerProduct(core.InnerProductConfig{
				Name: "fc1", Bottom: "data", Top: "fc1", NumOutput: 16, BiasTerm: true}),
			core.NewReLU("relu", "fc1", "fc1", 0),
			core.NewInnerProduct(core.InnerProductConfig{
				Name: "fc2", Bottom: "fc1", Top: "fc2", NumOutput: classes, BiasTerm: true}),
			core.NewSoftmaxLoss("loss", "fc2", "label", "loss"),
		)
		inputs := map[string]*tensor.Tensor{
			"data":  tensor.New(batch, 1, 3, 3),
			"label": tensor.New(batch, 1, 1, 1),
		}
		if err := net.Setup(inputs); err != nil {
			return nil, nil, err
		}
		return net, inputs, nil
	}
}

func TestDistributedEqualsSerial(t *testing.T) {
	const (
		nodes    = 4
		subBatch = 6
		classes  = 3
		iters    = 20
	)
	ds := dataset.NewClusters(2000, classes, 1, 3, 3, 0.4, 11)
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}

	dist, err := NewDistTrainer(DistConfig{Nodes: nodes, SubBatch: subBatch, Solver: cfg},
		mlpFactory(subBatch, classes))
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()
	serialNet, serialIn, err := mlpFactory(nodes*subBatch, classes)()
	if err != nil {
		t.Fatal(err)
	}
	serial := core.NewSolver(serialNet, cfg)

	for it := 0; it < iters; it++ {
		dist.LoadShards(ds, it)
		dist.Step()
		dataset.Batch(ds, it*nodes*subBatch, serialIn["data"], serialIn["label"])
		serial.Step()
	}

	// Gradient averaging over equal shards == full-batch gradient, so
	// parameters must agree to float rounding accumulated over iters.
	dp := dist.Workers[0].Net.LearnableParams()
	sp := serialNet.LearnableParams()
	for i := range dp {
		if d := tensor.MaxDiff(dp[i].Data, sp[i].Data); d > 1e-4 {
			t.Fatalf("param %d deviates by %g from the serial run", i, d)
		}
	}
	if d := dist.ParamsDiverged(); d != 0 {
		t.Fatalf("replicas diverged by %g", d)
	}
	if dist.CommTime <= 0 {
		t.Fatal("no simulated communication time accumulated")
	}
	if dist.Iter() != iters {
		t.Fatalf("iter = %d", dist.Iter())
	}
}

func TestDistributedConverges(t *testing.T) {
	const nodes, subBatch, classes = 4, 8, 3
	ds := dataset.NewClusters(2000, classes, 1, 3, 3, 0.3, 12)
	dist, err := NewDistTrainer(DistConfig{
		Nodes: nodes, SubBatch: subBatch,
		Solver: core.SolverConfig{BaseLR: 0.1, Momentum: 0.9},
	}, mlpFactory(subBatch, classes))
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()
	dist.LoadShards(ds, 0)
	first := dist.Step()
	var last float32
	for it := 1; it < 60; it++ {
		dist.LoadShards(ds, it)
		last = dist.Step()
	}
	if !(last < first/2) {
		t.Fatalf("distributed training did not converge: %g -> %g", first, last)
	}
}

func TestDistributedNonPowerOfTwoNodes(t *testing.T) {
	ds := dataset.NewClusters(500, 2, 1, 3, 3, 0.3, 13)
	for _, nodes := range []int{3, 5, 7} {
		dist, err := NewDistTrainer(DistConfig{
			Nodes: nodes, SubBatch: 4,
			Solver: core.SolverConfig{BaseLR: 0.05},
		}, mlpFactory(4, 2))
		if err != nil {
			t.Fatal(err)
		}
		for it := 0; it < 5; it++ {
			dist.LoadShards(ds, it)
			dist.Step()
		}
		if d := dist.ParamsDiverged(); d != 0 {
			t.Fatalf("nodes=%d: replicas diverged by %g", nodes, d)
		}
		dist.Close()
	}
}

// deepFactory builds a deeper conv+fc net whose parameters span
// several gradient buckets — the overlap test and bench workload.
func deepFactory(batch, classes int) func() (*core.Net, map[string]*tensor.Tensor, error) {
	return func() (*core.Net, map[string]*tensor.Tensor, error) {
		net := core.NewNet("deep", "data", "label")
		net.AddLayers(
			core.NewConv(core.ConvConfig{Name: "conv1", Bottom: "data", Top: "conv1",
				NumOutput: 8, Kernel: 3, Stride: 1, Pad: 1, BiasTerm: true}),
			core.NewReLU("relu1", "conv1", "conv1", 0),
			core.NewConv(core.ConvConfig{Name: "conv2", Bottom: "conv1", Top: "conv2",
				NumOutput: 8, Kernel: 3, Stride: 1, Pad: 1, BiasTerm: true}),
			core.NewReLU("relu2", "conv2", "conv2", 0),
			core.NewInnerProduct(core.InnerProductConfig{Name: "fc1", Bottom: "conv2", Top: "fc1",
				NumOutput: 64, BiasTerm: true}),
			core.NewReLU("relu3", "fc1", "fc1", 0),
			core.NewInnerProduct(core.InnerProductConfig{Name: "fc2", Bottom: "fc1", Top: "fc2",
				NumOutput: 32, BiasTerm: true}),
			core.NewReLU("relu4", "fc2", "fc2", 0),
			core.NewInnerProduct(core.InnerProductConfig{Name: "fc3", Bottom: "fc2", Top: "fc3",
				NumOutput: classes, BiasTerm: true}),
			core.NewSoftmaxLoss("loss", "fc3", "label", "loss"),
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

// TestOverlapBitIdenticalToBarrier: the bucketed pipeline must produce
// parameters (and replica consistency) bit-identical to the barrier
// trainer — the recursive halving/doubling collective reduces every
// element with the same cross-rank association order whether it
// travels packed in one vector or split into buckets.
func TestOverlapBitIdenticalToBarrier(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(2000, classes, 1, 8, 8, 0.4, 21)
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	for _, nodes := range []int{4, 3, 5} { // non-powers-of-two exercise the fold path
		barrier, err := NewDistTrainer(DistConfig{Nodes: nodes, SubBatch: 8, Solver: cfg},
			deepFactory(8, classes))
		if err != nil {
			t.Fatal(err)
		}
		defer barrier.Close()
		overlap, err := NewDistTrainer(DistConfig{Nodes: nodes, SubBatch: 8, Solver: cfg,
			Overlap: true, BucketBytes: 8 << 10}, deepFactory(8, classes))
		if err != nil {
			t.Fatal(err)
		}
		defer overlap.Close()
		for it := 0; it < 8; it++ {
			barrier.LoadShards(ds, it)
			overlap.LoadShards(ds, it)
			lb := barrier.Step()
			lo := overlap.Step()
			if lb != lo {
				t.Fatalf("nodes=%d iter %d: losses diverge: %v != %v", nodes, it, lb, lo)
			}
		}
		if overlap.Buckets() < 2 {
			t.Fatalf("nodes=%d: expected multiple buckets, got %d", nodes, overlap.Buckets())
		}
		bp := barrier.Workers[0].Net.LearnableParams()
		op := overlap.Workers[0].Net.LearnableParams()
		for i := range bp {
			if d := tensor.MaxDiff(bp[i].Data, op[i].Data); d != 0 {
				t.Fatalf("nodes=%d param %d: overlap deviates by %g from barrier (must be bit-identical)", nodes, i, d)
			}
		}
		if d := overlap.ParamsDiverged(); d != 0 {
			t.Fatalf("nodes=%d: overlap replicas diverged by %g", nodes, d)
		}
	}
}

// TestOverlapReducesModeledStepTime: on the modeled timeline the
// bucketed pipeline hides most of the all-reduce behind backward
// compute, so its step time beats the barrier trainer's.
func TestOverlapReducesModeledStepTime(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(500, classes, 1, 8, 8, 0.4, 22)
	cfg := core.SolverConfig{BaseLR: 0.05}
	mk := func(overlap bool) *DistTrainer {
		d, err := NewDistTrainer(DistConfig{Nodes: 4, SubBatch: 8, Solver: cfg,
			Overlap: overlap, BucketBytes: 8 << 10}, deepFactory(8, classes))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	barrier, overlap := mk(false), mk(true)
	defer barrier.Close()
	defer overlap.Close()
	barrier.LoadShards(ds, 0)
	overlap.LoadShards(ds, 0)
	barrier.Step()
	overlap.Step()

	b, o := barrier.LastStep, overlap.LastStep
	if b.Compute != o.Compute {
		t.Fatalf("modeled compute differs: %g vs %g", b.Compute, o.Compute)
	}
	if b.Exposed != b.Comm {
		t.Fatalf("barrier must expose its full all-reduce: %g != %g", b.Exposed, b.Comm)
	}
	if !(o.StepTime < b.StepTime) {
		t.Fatalf("overlap step %g not below barrier step %g", o.StepTime, b.StepTime)
	}
	if !(o.Exposed < b.Exposed/2) {
		t.Fatalf("overlap exposed %g should hide most of barrier's %g", o.Exposed, b.Exposed)
	}
	if overlap.ExposedCommTime >= barrier.ExposedCommTime {
		t.Fatalf("accumulated exposed comm: overlap %g >= barrier %g",
			overlap.ExposedCommTime, barrier.ExposedCommTime)
	}
}

// TestClusterRuntimeBitIdenticalToDES is the golden for the multi-node
// cluster runtime: running every worker's passes as CoreGroup launches
// on its own pooled swnode.Node (the goroutine backend) must produce
// losses, StepStats and parameters bit-identical to the DES backend,
// whose passes run inline on DES nodes, for both the barrier and the
// bucketed-overlap paths, power-of-two and not. The pooled nodes are
// execution machinery only. Run under -race by `make race`, this
// doubles as the N-node concurrency check.
func TestClusterRuntimeBitIdenticalToDES(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(2000, classes, 1, 8, 8, 0.4, 31)
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	for _, overlap := range []bool{false, true} {
		for _, nodes := range []int{4, 3} {
			mk := func(backend string) *DistTrainer {
				d, err := NewDistTrainer(DistConfig{Nodes: nodes, SubBatch: 8, Solver: cfg,
					Overlap: overlap, BucketBytes: 8 << 10, Backend: backend},
					deepFactory(8, classes))
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			pooled, des := mk(BackendGoroutine), mk(BackendDES)
			// 20 iterations: long enough that differencing the cumulative
			// node timeline (instead of reading each launch's own
			// duration) would shed float bits and break the compute leg's
			// equality with the priced pass cost around iteration 10.
			for it := 0; it < 20; it++ {
				pooled.LoadShards(ds, it)
				des.LoadShards(ds, it)
				lp, ld := pooled.Step(), des.Step()
				if lp != ld {
					t.Fatalf("overlap=%v nodes=%d iter %d: pooled loss %v != DES loss %v",
						overlap, nodes, it, lp, ld)
				}
				if !pooled.LastStep.Equal(des.LastStep) {
					t.Fatalf("overlap=%v nodes=%d iter %d: pooled StepStats %+v != DES %+v",
						overlap, nodes, it, pooled.LastStep, des.LastStep)
				}
				// Every bucket the engine lays out is flushed, and the
				// barrier is the one bucket: ready at the compute barrier,
				// started there and exposed in full.
				for _, d := range []*DistTrainer{pooled, des} {
					st := d.LastStep
					if len(st.Buckets) != d.Buckets() {
						t.Fatalf("overlap=%v nodes=%d iter %d: %d flushes, engine lays out %d buckets",
							overlap, nodes, it, len(st.Buckets), d.Buckets())
					}
					if overlap {
						continue
					}
					if b := st.Buckets; len(b) != 1 || b[0].ReadyAt != st.Compute || b[0].Start != st.Compute ||
						b[0].Exposed != b[0].Comm || b[0].Lo != 0 || b[0].Hi != d.Engine().TotalElems() {
						t.Fatalf("nodes=%d iter %d: barrier flushes %+v, want one [0, total) at compute %v, exposed in full",
							nodes, it, b, st.Compute)
					}
				}
				// The CPE clocks advance by exactly the priced pass cost.
				if pooled.LastStep.Compute != pooled.computeEnd {
					t.Fatalf("overlap=%v nodes=%d iter %d: pooled compute leg %v != priced %v",
						overlap, nodes, it, pooled.LastStep.Compute, pooled.computeEnd)
				}
			}
			dp := des.Workers[0].Net.LearnableParams()
			for r := 0; r < nodes; r++ {
				pp := pooled.Workers[r].Net.LearnableParams()
				for i := range pp {
					if d := tensor.MaxDiff(pp[i].Data, dp[i].Data); d != 0 {
						t.Fatalf("overlap=%v nodes=%d rank %d param %d: pooled runtime deviates by %g from DES (must be bit-identical)",
							overlap, nodes, r, i, d)
					}
				}
			}
			// The passes really ran on the simulated nodes: every worker
			// has a node timeline and the trainer accumulated compute.
			if pooled.ComputeTime <= 0 {
				t.Fatal("no modeled compute accumulated on the cluster runtime")
			}
			for r := 0; r < nodes; r++ {
				nd := pooled.Node(r)
				if nd.Launches() == 0 {
					t.Fatalf("rank %d: no launches on its simulated node", r)
				}
				if nd.SimTime() <= 0 {
					t.Fatalf("rank %d: empty node timeline", r)
				}
			}
			pooled.Close()
			des.Close()
		}
	}
}

// TestOverlapPassPanicPropagates: on the node-backed overlap trainer a
// worker-pass panic is recovered into its launch Event, so the failed
// worker goes quiet instead of crashing the process — the flush loop
// must surface the failure instead of waiting forever on a bucket
// signal the poisoned worker can no longer send.
func TestOverlapPassPanicPropagates(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(500, classes, 1, 8, 8, 0.4, 33)
	d, err := NewDistTrainer(DistConfig{Nodes: 3, SubBatch: 8,
		Solver:  core.SolverConfig{BaseLR: 0.05},
		Overlap: true, BucketBytes: 8 << 10}, deepFactory(8, classes))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.LoadShards(ds, 0)
	d.Step() // healthy warmup

	d.LoadShards(ds, 1)
	d.Workers[1].Labels.Data[0] = 9999 // poison: loss layer panics on rank 1's pass
	stepErr := make(chan any, 1)
	go func() {
		defer func() { stepErr <- recover() }()
		d.Step()
	}()
	select {
	case r := <-stepErr:
		if r == nil {
			t.Fatal("poisoned Step returned instead of panicking")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("poisoned Step hung instead of re-raising the pass panic")
	}

	// Recover-and-reuse: with the fault removed, the same trainer must
	// run clean steps again (no stale bucket tokens, node poison or
	// timeline skew from the failed Step).
	requireTracksTwin(t, d, DistConfig{Nodes: 3, SubBatch: 8,
		Solver:  core.SolverConfig{BaseLR: 0.05},
		Overlap: true, BucketBytes: 8 << 10}, classes, ds)
}

// requireTracksTwin steps d, recovered from a failed step 1, over
// iterations 2–4 next to a fresh twin (cfg, deepFactory's net with
// classes outputs) that replays the healthy step 0 first, and requires
// the two to agree bit for bit: losses, modeled compute, replica
// consistency and parameters.
func requireTracksTwin(t *testing.T, d *DistTrainer, cfg DistConfig, classes int, ds dataset.Dataset) {
	t.Helper()
	twin, err := NewDistTrainer(cfg, deepFactory(cfg.SubBatch, classes))
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	twin.LoadShards(ds, 0)
	twin.Step()
	for it := 2; it < 5; it++ {
		d.LoadShards(ds, it)
		twin.LoadShards(ds, it)
		if ld, lt := d.Step(), twin.Step(); ld != lt {
			t.Fatalf("iter %d after recovery: loss %v != twin %v", it, ld, lt)
		}
		if d.LastStep.Compute != twin.LastStep.Compute {
			t.Fatalf("iter %d after recovery: modeled compute %g != twin %g (stale timeline)",
				it, d.LastStep.Compute, twin.LastStep.Compute)
		}
	}
	if div := d.ParamsDiverged(); div != 0 {
		t.Fatalf("replicas diverged by %g after recovery", div)
	}
	p, q := d.Workers[0].Net.LearnableParams(), twin.Workers[0].Net.LearnableParams()
	for i := range p {
		if diff := tensor.MaxDiff(p[i].Data, q[i].Data); diff != 0 {
			t.Fatalf("param %d deviates by %g from the twin after recovery", i, diff)
		}
	}
}

// TestOverlapCollectivePanicQuiescesPasses: if the collective itself
// panics mid-flush (a schedule bug, or an injected simnet rank fault)
// while workers are still mid-backward, Step must quiesce the in-flight
// pass launches before re-raising — otherwise a caller that recovers
// and Steps again races the stale passes on the reused bucket staging.
// The fault hits the step's second flush, after the first bucket's
// reduced gradient was already drained into the workers' gradients:
// the half-drained step must leave nothing behind that the recovered
// trainer's next Step can see. Run under -race by `make race`.
func TestOverlapCollectivePanicQuiescesPasses(t *testing.T) {
	const classes, nodes = 3, 3
	ds := dataset.NewClusters(500, classes, 1, 8, 8, 0.4, 34)
	faults, err := elastic.ParseFaultPlan("1@1:flush-bucket-1")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDistTrainer(DistConfig{Nodes: nodes, SubBatch: 8,
		Solver:  core.SolverConfig{BaseLR: 0.05},
		Overlap: true, BucketBytes: 8 << 10, Faults: faults}, deepFactory(8, classes))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.LoadShards(ds, 0)
	d.Step() // healthy warmup
	if d.Buckets() < 2 {
		t.Fatalf("%d buckets: the fault needs a flush to follow a drained one", d.Buckets())
	}

	d.LoadShards(ds, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("collective fault was not re-raised from Step")
			}
		}()
		d.Step()
	}()

	// The failed step is half drained: the first bucket (the tail of the
	// packed vector) holds the cluster average on every worker, the
	// head still each worker's own gradient.
	g0, g1 := d.Workers[0].Net.LearnableParams(), d.Workers[1].Net.LearnableParams()
	if last := len(g0) - 1; tensor.MaxDiff(g0[last].Diff, g1[last].Diff) != 0 {
		t.Fatal("the bucket flushed before the fault was not drained")
	}
	if tensor.MaxDiff(g0[0].Diff, g1[0].Diff) == 0 {
		t.Fatal("the bucket the fault hit was drained anyway")
	}

	// Recover-and-reuse against a fresh twin, bit for bit. The plan's one
	// fault has fired, so the recovered trainer steps clean.
	requireTracksTwin(t, d, DistConfig{Nodes: 3, SubBatch: 8,
		Solver:  core.SolverConfig{BaseLR: 0.05},
		Overlap: true, BucketBytes: 8 << 10}, classes, ds)
}

// TestBarrierLateRankPanicDoesNotCorruptRecoveredTrainer: rank 0 dies
// as the hierarchical barrier flush enters its allgather, while the
// other supernode's ranks sleep there and then try to finish the phase.
// simnet joins them before the panic leaves Step, so none of them
// outlives the re-raise, and the trainer that recovers and steps on
// must still match a fresh twin bit for bit: nothing the failed flush
// left in the packed views may reach it. Run under -race by `make
// race`.
func TestBarrierLateRankPanicDoesNotCorruptRecoveredTrainer(t *testing.T) {
	const classes, nodes = 3, 4
	ds := dataset.NewClusters(500, classes, 1, 8, 8, 0.4, 35)
	netw, mapping := hierNet(2)
	cfg := DistConfig{Nodes: nodes, SubBatch: 8,
		Solver:  core.SolverConfig{BaseLR: 0.05},
		Network: netw, Mapping: mapping, AlgorithmName: allreduce.NameHierarchical}
	d, err := NewDistTrainer(cfg, deepFactory(8, classes))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.LoadShards(ds, 0)
	d.Step() // healthy warmup

	var poison atomic.Bool
	prev := allreduce.SetHierPhaseHook(func(rank int, _ float64, phase allreduce.HierPhase) {
		if !poison.Load() || phase != allreduce.HierAllgather {
			return
		}
		switch {
		case rank == 0:
			panic("late rank fault")
		case mapping.Supernode(rank, nodes) != mapping.Supernode(0, nodes):
			time.Sleep(30 * time.Millisecond) // peers finish after rank 0 dies
		}
	})
	poison.Store(true)
	d.LoadShards(ds, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("late rank fault was not re-raised from Step")
			}
		}()
		d.Step()
	}()
	poison.Store(false)
	allreduce.SetHierPhaseHook(prev)

	// Step again immediately and compare against a fresh twin bit for
	// bit.
	requireTracksTwin(t, d, cfg, classes, ds)
}

// TestCGTrainerMatchesSeedTrainerBitForBit pins the simulated-CG
// trainer to the pre-swnode host-math implementation: losses and every
// replica's parameters must match bit for bit — the 4 simulated
// CoreGroups, the stream/event chaining and the SumRun mesh kernels
// are execution machinery only.
func TestCGTrainerMatchesSeedTrainerBitForBit(t *testing.T) {
	const quarter, classes = 4, 3
	ds := dataset.NewClusters(1000, classes, 1, 3, 3, 0.4, 14)
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}

	sim, err := NewCGTrainer(mlpFactory(quarter, classes), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()

	// Host-math replica of the seed trainer (the implementation the
	// simulated one replaced).
	var refCGs []*Worker
	for i := 0; i < 4; i++ {
		net, inputs, err := mlpFactory(quarter, classes)()
		if err != nil {
			t.Fatal(err)
		}
		refCGs = append(refCGs, &Worker{Rank: i, Net: net, Data: inputs["data"], Labels: inputs["label"]})
	}
	refSolver := core.NewSolver(refCGs[0].Net, cfg)
	seedStep := func() float32 {
		losses := make([]float32, 4)
		for i, w := range refCGs {
			w.Net.ZeroParamDiffs()
			losses[i] = w.Net.Forward(core.Train)
			w.Net.Backward(core.Train)
		}
		base := refCGs[0].Net.LearnableParams()
		for cg := 1; cg < 4; cg++ {
			other := refCGs[cg].Net.LearnableParams()
			for i, p := range base {
				p.Diff.AXPY(1, other[i].Diff)
			}
		}
		for _, p := range base {
			p.Diff.Scale(0.25)
		}
		refSolver.ApplyUpdate()
		for cg := 1; cg < 4; cg++ {
			other := refCGs[cg].Net.LearnableParams()
			for i, p := range base {
				other[i].Data.CopyFrom(p.Data)
			}
		}
		return (losses[0] + losses[1] + losses[2] + losses[3]) / 4
	}

	for it := 0; it < 12; it++ {
		for i := 0; i < 4; i++ {
			dataset.Batch(ds, (it*4+i)*quarter, sim.CGs[i].Data, sim.CGs[i].Labels)
			dataset.Batch(ds, (it*4+i)*quarter, refCGs[i].Data, refCGs[i].Labels)
		}
		ls := sim.Step()
		lr := seedStep()
		if ls != lr {
			t.Fatalf("iter %d: loss %v != seed trainer loss %v", it, ls, lr)
		}
	}
	for cg := 0; cg < 4; cg++ {
		a := sim.CGs[cg].Net.LearnableParams()
		b := refCGs[cg].Net.LearnableParams()
		for i := range a {
			if d := tensor.MaxDiff(a[i].Data, b[i].Data); d != 0 {
				t.Fatalf("CG %d param %d: simulated trainer deviates by %g (must be bit-identical)", cg, i, d)
			}
		}
	}
	if sim.SimTime <= 0 {
		t.Fatal("no modeled node time accumulated")
	}
	if st := sim.Node().Stats(); st.DMAGetBytes == 0 || st.Flops == 0 {
		t.Fatalf("gradient summation left no trace on the simulated CGs: %+v", st)
	}
}

func TestCGTrainerMatchesFullBatch(t *testing.T) {
	// Algorithm 1's 4-CG averaging over quarter shards must equal
	// full-batch SGD for batch-linear nets (no batch norm).
	const quarter, classes = 4, 3
	ds := dataset.NewClusters(1000, classes, 1, 3, 3, 0.4, 14)
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}

	cg, err := NewCGTrainer(mlpFactory(quarter, classes), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cg.Close()
	fullNet, fullIn, err := mlpFactory(4*quarter, classes)()
	if err != nil {
		t.Fatal(err)
	}
	full := core.NewSolver(fullNet, cfg)

	for it := 0; it < 15; it++ {
		for i, w := range cg.CGs {
			dataset.Batch(ds, (it*4+i)*quarter, w.Data, w.Labels)
		}
		cg.Step()
		dataset.Batch(ds, it*4*quarter, fullIn["data"], fullIn["label"])
		full.Step()
	}
	a := cg.CGs[0].Net.LearnableParams()
	b := fullNet.LearnableParams()
	for i := range a {
		if d := tensor.MaxDiff(a[i].Data, b[i].Data); d > 1e-4 {
			t.Fatalf("param %d: CG trainer deviates by %g from full batch", i, d)
		}
	}
}

func TestIterationBreakdown(t *testing.T) {
	bd, err := Iteration(ScalingConfig{Model: "alexnet-bn", SubBatch: 256, Nodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if bd.Compute <= 0 || bd.IntraSum <= 0 || bd.Allreduce <= 0 {
		t.Fatalf("breakdown has non-positive parts: %+v", bd)
	}
	if bd.Total() < bd.Compute {
		t.Fatal("total below compute")
	}
	if f := bd.CommFraction(); f <= 0 || f >= 1 {
		t.Fatalf("comm fraction %g out of (0,1)", f)
	}
	// Single node: no all-reduce.
	b1, _ := Iteration(ScalingConfig{Model: "alexnet-bn", SubBatch: 256, Nodes: 1})
	if b1.Allreduce != 0 {
		t.Fatal("single node should not pay for all-reduce")
	}
}

func TestIterationErrors(t *testing.T) {
	if _, err := Iteration(ScalingConfig{Model: "nope", SubBatch: 64, Nodes: 2}); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := Iteration(ScalingConfig{Model: "vgg16", SubBatch: 63, Nodes: 2}); err == nil {
		t.Fatal("sub-batch not divisible by 4 CGs must error")
	}
	if _, err := Iteration(ScalingConfig{Model: "vgg16", SubBatch: 64, Nodes: 0}); err == nil {
		t.Fatal("zero nodes must error")
	}
}

func TestSpeedupBounds(t *testing.T) {
	for _, model := range []string{"alexnet-bn", "resnet50"} {
		for _, p := range []int{2, 32, 1024} {
			s, err := Speedup(ScalingConfig{Model: model, SubBatch: 64, Nodes: p})
			if err != nil {
				t.Fatal(err)
			}
			if s <= 1 || s > float64(p) {
				t.Fatalf("%s p=%d: speedup %g out of (1, %d]", model, p, s, p)
			}
		}
	}
}

func TestCommFractionGrowsWithScale(t *testing.T) {
	pts, err := Sweep(ScalingConfig{Model: "alexnet-bn", SubBatch: 128}, []int{2, 16, 128, 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].CommFraction <= pts[i-1].CommFraction {
			t.Fatalf("comm fraction should grow with p: %+v", pts)
		}
	}
}

// TestSweepMatchesIteration: Sweep prices the node once and adds each
// point's all-reduce term, which gives bit for bit what one Iteration
// per point and Speedup give under either mapping. A non-positive node
// count in the list is still an error.
func TestSweepMatchesIteration(t *testing.T) {
	nodes := []int{1, 2, 8, 64, 1024}
	for _, cfg := range []ScalingConfig{
		{Model: "alexnet-bn", SubBatch: 128},
		{Model: "resnet50", SubBatch: 32, Adjacent: true},
	} {
		pts, err := Sweep(cfg, nodes)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range nodes {
			c := cfg
			c.Nodes = p
			bd, err := Iteration(c)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Speedup(c)
			if err != nil {
				t.Fatal(err)
			}
			got := pts[i]
			if got.Nodes != p || math.Float64bits(got.IterTime) != math.Float64bits(bd.Total()) ||
				math.Float64bits(got.CommFraction) != math.Float64bits(bd.CommFraction()) ||
				math.Float64bits(got.Speedup) != math.Float64bits(s) {
				t.Fatalf("%s B=%d adjacent=%v p=%d: Sweep %+v, Iteration %g (comm %g), Speedup %g",
					cfg.Model, cfg.SubBatch, cfg.Adjacent, p, got, bd.Total(), bd.CommFraction(), s)
			}
		}
	}
	if _, err := Sweep(ScalingConfig{Model: "alexnet-bn", SubBatch: 64}, []int{2, 0}); err == nil {
		t.Fatal("a zero node count in the sweep must error")
	}
}

func TestPaperScalingAnchors(t *testing.T) {
	// Fig. 10/11 anchors at 1024 nodes. Bands are generous: the shape,
	// not the digit, is the claim.
	cases := []struct {
		model     string
		subBatch  int
		speedupLo float64
		speedupHi float64
		commLo    float64
		commHi    float64
	}{
		{"alexnet-bn", 256, 600, 820, 0.22, 0.40}, // paper: 715x, 30.1%
		{"alexnet-bn", 128, 480, 700, 0.33, 0.52}, // paper: 561x, 45.2%
		{"alexnet-bn", 64, 380, 600, 0.42, 0.65},  // paper: 409x, 60.0%
		{"resnet50", 32, 850, 1010, 0.05, 0.16},   // paper: 928x, 10.7%
	}
	for _, c := range cases {
		cfg := ScalingConfig{Model: c.model, SubBatch: c.subBatch, Nodes: 1024}
		s, err := Speedup(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bd, _ := Iteration(cfg)
		if s < c.speedupLo || s > c.speedupHi {
			t.Errorf("%s B=%d: speedup %g outside [%g, %g]", c.model, c.subBatch, s, c.speedupLo, c.speedupHi)
		}
		if f := bd.CommFraction(); f < c.commLo || f > c.commHi {
			t.Errorf("%s B=%d: comm fraction %g outside [%g, %g]", c.model, c.subBatch, f, c.commLo, c.commHi)
		}
	}
}

func TestResNetScalesBetterThanAlexNet(t *testing.T) {
	// Sec. VI-C: higher computation-to-communication ratio gives
	// ResNet-50 better scalability.
	alex, _ := Speedup(ScalingConfig{Model: "alexnet-bn", SubBatch: 64, Nodes: 1024})
	res, _ := Speedup(ScalingConfig{Model: "resnet50", SubBatch: 64, Nodes: 1024})
	if res <= alex {
		t.Fatalf("ResNet-50 (%gx) should out-scale AlexNet (%gx)", res, alex)
	}
}

func TestTopologyAwareMappingHelps(t *testing.T) {
	base := ScalingConfig{Model: "alexnet-bn", SubBatch: 256, Nodes: 1024}
	adj := base
	adj.Adjacent = true
	bRR, err := Iteration(base)
	if err != nil {
		t.Fatal(err)
	}
	bAdj, err := Iteration(adj)
	if err != nil {
		t.Fatal(err)
	}
	if bRR.Allreduce >= bAdj.Allreduce {
		t.Fatalf("round-robin all-reduce (%g) should beat adjacent (%g)", bRR.Allreduce, bAdj.Allreduce)
	}
}
