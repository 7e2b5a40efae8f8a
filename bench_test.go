package swcaffe

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation section (DESIGN.md §3 maps each ID to its
// generator). Each benchmark regenerates the artifact; run
//
//	go test -bench=. -benchmem
//
// to reproduce the full evaluation, or -bench=BenchmarkTable3 etc.
// for a single artifact. The rendered artifacts go to io.Discard here;
// use cmd/swbench to read them.

import (
	"io"
	"path/filepath"
	"testing"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/elastic"
	"swcaffe/internal/experiments"
	"swcaffe/internal/obs"
	"swcaffe/internal/pario"
	"swcaffe/internal/sw26010"
	"swcaffe/internal/swdnn"
	"swcaffe/internal/tensor"
	"swcaffe/internal/topology"
	"swcaffe/internal/train"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard)
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure2(io.Discard)
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(io.Discard)
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure6(io.Discard)
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure7(io.Discard, 100e6)
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure8(io.Discard)
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure9(io.Discard)
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(io.Discard)
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure10(io.Discard)
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure11(io.Discard)
	}
}

func BenchmarkIOStriping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.IOStriping(io.Discard)
	}
}

func BenchmarkPackAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PackAblation(io.Discard)
	}
}

func BenchmarkGEMMAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.GEMMAblation(io.Discard)
	}
}

func BenchmarkAllreduceAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AllreduceAblation(io.Discard)
	}
}

func BenchmarkBNAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.BNAblation(io.Discard)
	}
}

func BenchmarkSumAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.SumAblation(io.Discard)
	}
}

func BenchmarkMappingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.MappingAblation(io.Discard)
	}
}

func BenchmarkBatchSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.BatchSweep(io.Discard)
	}
}

// Functional-simulator micro-benchmarks: these measure the host cost
// of the simulation itself (how fast the reproduction runs, not the
// simulated times).

func BenchmarkSimGEMM64(b *testing.B) { benchSimGEMM(b, 64) }

func BenchmarkSimGEMM128(b *testing.B) { benchSimGEMM(b, 128) }

func benchSimGEMM(b *testing.B, n int) {
	cg := sw26010.NewCoreGroup(nil)
	a := make([]float32, n*n)
	bb := make([]float32, n*n)
	c := make([]float32, n*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		swdnn.GEMMRun(cg, a, bb, c, n, n, n)
	}
}

// BenchmarkSimGEMMRagged exercises the pad/unpad staging path (dims
// not multiples of 8), which the staging pool makes allocation-free
// at steady state.
func BenchmarkSimGEMMRagged(b *testing.B) {
	cg := sw26010.NewCoreGroup(nil)
	const m, k, n = 60, 52, 44
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		swdnn.GEMMRun(cg, a, bb, c, m, k, n)
	}
}

// BenchmarkSimConvExplicit measures the host cost of the full
// explicit-convolution pipeline (im2col + GEMM + bias) on the
// simulator, including the pooled column buffer.
func BenchmarkSimConvExplicit(b *testing.B) {
	cg := sw26010.NewCoreGroup(nil)
	s := swdnn.ConvShape{B: 1, Ni: 8, Ri: 16, Ci: 16, No: 8, K: 3, S: 1, P: 1}
	ro, co := s.OutDims()
	src := make([]float32, s.Ni*s.Ri*s.Ci)
	w := make([]float32, s.No*s.Ni*s.K*s.K)
	bias := make([]float32, s.No)
	dst := make([]float32, s.No*ro*co)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		swdnn.ConvExplicitRun(cg, src, w, bias, s, dst)
	}
}

func BenchmarkConvPlanSelection(b *testing.B) {
	hw := sw26010.Default()
	s := swdnn.ConvShape{B: 128, Ni: 256, Ri: 56, Ci: 56, No: 256, K: 3, S: 1, P: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		swdnn.ConvPlans(hw, s, swdnn.Forward)
	}
}

// BenchmarkGEMMPlanWarm measures the steady-state (memoized) planner
// query; BenchmarkGEMMPlanCold forces the full O(candidates^3) tiling
// search every iteration by clearing the cache.
func BenchmarkGEMMPlanWarm(b *testing.B) {
	hw := sw26010.Default()
	swdnn.GEMMPlan(hw, 512, 512, 3136)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		swdnn.GEMMPlan(hw, 512, 512, 3136)
	}
}

func BenchmarkGEMMPlanCold(b *testing.B) {
	hw := sw26010.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		swdnn.ResetPlanCache()
		swdnn.GEMMPlan(hw, 512, 512, 3136)
	}
}

// Solver / all-reduce hot-path micro-benchmarks (allocation audit
// beyond the kernels): the momentum-SGD update loop and the gradient
// pack/scale paths must stay allocation-free at steady state.

// benchNet builds a small multi-layer net with gradients filled, for
// the solver and trainer benchmarks.
func benchNet(batch int) (*core.Net, map[string]*tensor.Tensor) {
	net := core.NewNet("bench", "data", "label")
	net.AddLayers(
		core.NewConv(core.ConvConfig{Name: "conv1", Bottom: "data", Top: "conv1",
			NumOutput: 8, Kernel: 3, Stride: 1, Pad: 1, BiasTerm: true}),
		core.NewReLU("relu1", "conv1", "conv1", 0),
		core.NewInnerProduct(core.InnerProductConfig{Name: "fc1", Bottom: "conv1", Top: "fc1",
			NumOutput: 64, BiasTerm: true}),
		core.NewReLU("relu2", "fc1", "fc1", 0),
		core.NewInnerProduct(core.InnerProductConfig{Name: "fc2", Bottom: "fc1", Top: "fc2",
			NumOutput: 8, BiasTerm: true}),
		core.NewSoftmaxLoss("loss", "fc2", "label", "loss"),
	)
	inputs := map[string]*tensor.Tensor{
		"data":  tensor.New(batch, 1, 8, 8),
		"label": tensor.New(batch, 1, 1, 1),
	}
	if err := net.Setup(inputs); err != nil {
		panic(err)
	}
	return net, inputs
}

// BenchmarkSolverUpdate measures one momentum-SGD parameter update
// (history reuse makes the steady state allocation-free).
func BenchmarkSolverUpdate(b *testing.B) {
	net, _ := benchNet(8)
	solver := core.NewSolver(net, core.SolverConfig{BaseLR: 0.01, Momentum: 0.9, WeightDecay: 5e-4})
	for _, p := range net.LearnableParams() {
		for i := range p.Diff.Data {
			p.Diff.Data[i] = float32(i%7) * 1e-3
		}
	}
	solver.ApplyUpdate() // allocate the momentum history once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.ApplyUpdate()
	}
}

// BenchmarkAllreducePack measures the packed-gradient staging round
// trip of Sec. V-A (concatenate all layer gradients, scatter back).
func BenchmarkAllreducePack(b *testing.B) {
	net, _ := benchNet(8)
	var buf []float32
	buf = net.PackGradients(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = net.PackGradients(buf)
		net.UnpackGradients(buf)
	}
}

// Distributed-step benchmarks: barrier vs bucketed overlap on a
// multi-layer net. Besides host cost, each reports the modeled
// iteration time, which the overlapped pipeline must reduce.

func benchDistTrainer(b *testing.B, cfg train.DistConfig) {
	build := func() (*core.Net, map[string]*tensor.Tensor, error) {
		net, inputs := benchNet(8)
		return net, inputs, nil
	}
	cfg.Nodes, cfg.SubBatch = 4, 8
	cfg.Solver = core.SolverConfig{BaseLR: 0.01, Momentum: 0.9}
	d, err := train.NewDistTrainer(cfg, build)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	ds := dataset.NewClusters(512, 4, 1, 8, 8, 0.3, 7)
	d.LoadShards(ds, 0)
	d.Step() // warm buffers, the modeled timeline and the CPE pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchDistTracer != nil {
			benchDistTracer.Reset()
		}
		d.Step()
	}
	b.ReportMetric(d.LastStep.StepTime*1e6, "modeled-us/step")
	b.ReportMetric(d.LastStep.Exposed*1e6, "exposed-comm-us/step")
	if cfg.IO != nil {
		b.ReportMetric(d.LastStep.IO*1e6, "io-us/step")
		b.ReportMetric(d.LastStep.ExposedIO*1e6, "exposed-io-us/step")
	}
}

// DistStep runs the multi-node cluster runtime: every worker's passes
// execute as stream launches on its own simulated swnode.Node. The
// HostMath variants run the same numerics as plain goroutines — the
// host-side overhead delta is the price of the modeled node timelines.
func BenchmarkDistStepBarrier(b *testing.B) { benchDistTrainer(b, train.DistConfig{}) }

func BenchmarkDistStepOverlap(b *testing.B) {
	benchDistTrainer(b, train.DistConfig{Overlap: true, BucketBytes: 8 << 10})
}

func BenchmarkDistStepBarrierHostMath(b *testing.B) {
	benchDistTrainer(b, train.DistConfig{HostMath: true})
}

func BenchmarkDistStepOverlapHostMath(b *testing.B) {
	benchDistTrainer(b, train.DistConfig{Overlap: true, BucketBytes: 8 << 10, HostMath: true})
}

// Collective-engine variants: ring vs RHD × fixed DefaultBucketBytes
// vs α-β auto-selected buckets. The acceptance bar of the engine PR is
// that the Auto variants report lower modeled exposed comm than their
// FixedDefault counterparts (for this small net the 4 MB default
// degenerates to a single barrier-shaped bucket).
func BenchmarkDistStepOverlapFixedDefault(b *testing.B) {
	benchDistTrainer(b, train.DistConfig{Overlap: true})
}

func BenchmarkDistStepOverlapAuto(b *testing.B) {
	benchDistTrainer(b, train.DistConfig{Overlap: true, AutoBucket: true})
}

// Input-pipeline variants: the same auto-bucketed overlap step with the
// per-rank shard read priced through the pario model (1 MB/shard, 4
// concurrent readers). The acceptance bar of the input-pipeline PR is
// that the AutoStripe variant reports (near-)zero modeled exposed I/O
// while the single-split variant pays the read past the step.
func BenchmarkDistStepOverlapIOStripe1(b *testing.B) {
	benchDistTrainer(b, train.DistConfig{Overlap: true, AutoBucket: true,
		IO: &train.IOConfig{Storage: pario.DefaultTaihuLight(1), BatchBytes: 1 << 20}})
}

func BenchmarkDistStepOverlapIOAuto(b *testing.B) {
	benchDistTrainer(b, train.DistConfig{Overlap: true, AutoBucket: true,
		IO: &train.IOConfig{Storage: pario.DefaultTaihuLight(1), BatchBytes: 1 << 20, AutoStripe: true}})
}

func BenchmarkDistStepBarrierRing(b *testing.B) {
	benchDistTrainer(b, train.DistConfig{AlgorithmName: allreduce.NameRing})
}

func BenchmarkDistStepOverlapRingFixedDefault(b *testing.B) {
	benchDistTrainer(b, train.DistConfig{Overlap: true, AlgorithmName: allreduce.NameRing})
}

func BenchmarkDistStepOverlapRingAuto(b *testing.B) {
	benchDistTrainer(b, train.DistConfig{Overlap: true, AlgorithmName: allreduce.NameRing, AutoBucket: true})
}

// Hierarchical variants run on a 2-node-supernode adjacent-mapped
// network (the stock q=256 would keep a 4-node bench inside one
// supernode, degenerating the schedule) — barrier, overlap at the
// fixed default cap, α-β auto-bucketed, and the full 2-D plan
// selector ("auto" picks the algorithm too).
func hierBenchConfig(cfg train.DistConfig) train.DistConfig {
	netw := topology.Sunway()
	netw.SupernodeSize = 2
	cfg.Network = netw
	cfg.Mapping = topology.AdjacentMapping{Q: 2}
	return cfg
}

func BenchmarkDistStepBarrierHier(b *testing.B) {
	benchDistTrainer(b, hierBenchConfig(train.DistConfig{AlgorithmName: allreduce.NameHierarchical}))
}

func BenchmarkDistStepOverlapHierFixedDefault(b *testing.B) {
	benchDistTrainer(b, hierBenchConfig(train.DistConfig{Overlap: true, AlgorithmName: allreduce.NameHierarchical}))
}

func BenchmarkDistStepOverlapHierAuto(b *testing.B) {
	benchDistTrainer(b, hierBenchConfig(train.DistConfig{Overlap: true, AlgorithmName: allreduce.NameHierarchical, AutoBucket: true}))
}

func BenchmarkDistStepOverlapAlgAuto(b *testing.B) {
	benchDistTrainer(b, hierBenchConfig(train.DistConfig{Overlap: true, AlgorithmName: "auto"}))
}

// BenchmarkDistStepOverlapTimeline measures the timeline-only node
// mode (no CPE pools) against BenchmarkDistStepOverlap's pooled nodes:
// identical numerics and modeled metrics, lower host cost — the mode
// the p-in-the-hundreds functional sweep runs on.
func BenchmarkDistStepOverlapTimeline(b *testing.B) {
	benchDistTrainer(b, train.DistConfig{Overlap: true, BucketBytes: 8 << 10, Timeline: true})
}

// Discrete-event backend variants of the DistStep pair: the same
// training step scheduled on internal/des's single-threaded event
// heap instead of goroutine ranks. The modeled-us/step must match the
// goroutine backend bit for bit (676.8 barrier / 636.7 overlap-auto
// lineage — the DES goldens pin it); the host cost is what changes.
func BenchmarkDistStepBarrierDES(b *testing.B) {
	benchDistTrainer(b, train.DistConfig{Timeline: true, Backend: train.BackendDES})
}

func BenchmarkDistStepOverlapDES(b *testing.B) {
	benchDistTrainer(b, train.DistConfig{Overlap: true, BucketBytes: 8 << 10, Timeline: true, Backend: train.BackendDES})
}

// Functional-sweep wall-clock: the DES backend's reason to exist. The
// p=128 pair measures the backend speedup like for like; the p=1024
// point is the paper-scale sweep that was simply infeasible on
// goroutine ranks (thousands of live goroutines per collective) and
// now completes in seconds.
func benchFuncScale(b *testing.B, p int, backend string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.FunctionalScalingAt(io.Discard, []int{p}, backend)
	}
}

func BenchmarkFuncScaleP128Goroutine(b *testing.B) { benchFuncScale(b, 128, train.BackendGoroutine) }
func BenchmarkFuncScaleP128DES(b *testing.B)       { benchFuncScale(b, 128, train.BackendDES) }
func BenchmarkFuncScaleP1024DES(b *testing.B)      { benchFuncScale(b, 1024, train.BackendDES) }

// Tracing-cost variants of BenchmarkDistStepOverlap. TracedOff is the
// observability PR's zero-cost claim: with no tracer configured the
// trainer must match BenchmarkDistStepOverlap exactly — same allocs/op,
// same modeled-us/step — because every trace call site is guarded by a
// nil check. TracedOn attaches a live Tracer (reset per iteration so
// the span buffer doesn't grow with b.N); it pays host-time and
// allocations for span capture but must leave the modeled metrics
// bit-identical: the tracer observes the simulated clock, never
// perturbs it.
func BenchmarkDistStepTracedOff(b *testing.B) {
	benchDistTrainer(b, train.DistConfig{Overlap: true, BucketBytes: 8 << 10})
}

func BenchmarkDistStepTracedOn(b *testing.B) {
	tr := obs.New()
	benchDistTracer = tr
	defer func() { benchDistTracer = nil }()
	benchDistTrainer(b, train.DistConfig{Overlap: true, BucketBytes: 8 << 10, Tracer: tr})
}

// benchDistTracer, when non-nil, is reset between measured steps so
// TracedOn measures steady-state span capture, not buffer growth.
var benchDistTracer *obs.Tracer

// BenchmarkCGTrainerStep measures one Algorithm-1 iteration on the
// four simulated CoreGroups of a swnode.Node (quarter-batch passes +
// mesh gradient summation).
func BenchmarkCGTrainerStep(b *testing.B) {
	build := func() (*core.Net, map[string]*tensor.Tensor, error) {
		net, inputs := benchNet(2)
		return net, inputs, nil
	}
	t, err := train.NewCGTrainer(build, core.SolverConfig{BaseLR: 0.01, Momentum: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	defer t.Close()
	ds := dataset.NewClusters(512, 4, 1, 8, 8, 0.3, 8)
	for i, w := range t.CGs {
		dataset.Batch(ds, i*2, w.Data, w.Labels)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Step()
	}
}

// Elastic-training benchmarks: the cost of the fault-tolerance
// machinery, so the checkpoint cadence and recovery latency can be
// budgeted against the modeled step time.

// benchElasticTrainer builds the p=8 timeline-mode trainer the
// elastic benchmarks exercise and takes one warm-up step.
func benchElasticTrainer(b *testing.B, nodes int) (*train.DistTrainer, dataset.Dataset) {
	build := func() (*core.Net, map[string]*tensor.Tensor, error) {
		net, inputs := benchNet(8)
		return net, inputs, nil
	}
	d, err := train.NewDistTrainer(train.DistConfig{
		Nodes: nodes, SubBatch: 8,
		Solver:  core.SolverConfig{BaseLR: 0.01, Momentum: 0.9},
		Overlap: true, BucketBytes: 8 << 10, Timeline: true,
	}, build)
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset.NewClusters(512, 4, 1, 8, 8, 0.3, 7)
	d.LoadShards(ds, 0)
	d.Step()
	return d, ds
}

// BenchmarkCheckpointSave captures the full trainer state and writes
// the versioned gob atomically to disk.
func BenchmarkCheckpointSave(b *testing.B) {
	d, _ := benchElasticTrainer(b, 8)
	defer d.Close()
	path := filepath.Join(b.TempDir(), "bench.ckpt")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := elastic.Save(path, d.Checkpoint()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRestore reads the checkpoint back and installs
// it into every replica.
func BenchmarkCheckpointRestore(b *testing.B) {
	d, _ := benchElasticTrainer(b, 8)
	defer d.Close()
	path := filepath.Join(b.TempDir(), "bench.ckpt")
	if err := elastic.Save(path, d.Checkpoint()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := elastic.Load(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Restore(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShrinkRecovery measures the full recovery sequence after a
// rank failure at p=8: shrink the world to p'=7 (re-rank, fresh
// communicator, discarded collective plan), restore the checkpoint,
// and take the first step at the new shape (which re-runs plan
// selection and re-lays the buckets).
func BenchmarkShrinkRecovery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, ds := benchElasticTrainer(b, 8)
		ckpt := d.Checkpoint()
		b.StartTimer()
		if err := d.Shrink(3); err != nil {
			b.Fatal(err)
		}
		if err := d.Restore(ckpt); err != nil {
			b.Fatal(err)
		}
		d.LoadShards(ds, d.Iter())
		d.Step()
		b.StopTimer()
		d.Close()
		b.StartTimer()
	}
}
