package experiments

import (
	"fmt"
	"io"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/models"
	"swcaffe/internal/pario"
	"swcaffe/internal/tensor"
	"swcaffe/internal/topology"
	"swcaffe/internal/train"
)

// Figure7Result compares the original and improved all-reduce on the
// paper's 8-node / 2-supernode worked example, both analytically
// (Eqns. 2-6) and by pricing its schedule on the simulator.
type Figure7Result struct {
	Bytes             float64
	OriginalAnalytic  float64
	ImprovedAnalytic  float64
	OriginalSimulated float64
	ImprovedSimulated float64
}

// Figure7 reproduces the 8-node example of paper Fig. 7: recursive
// halving/doubling all-reduce under adjacent vs round-robin rank
// numbering with 2 supernodes of 4 nodes. The simulated column is
// Schedule.Price — the simulator's clocks, without running a rank — of
// p-element vectors, each element standing for nBytes/p wire bytes: RHD
// moves a half, a quarter and an eighth of the vector a round, so every
// charge is nBytes/2, /4 or /8 exactly at any power-of-two length, and
// the clocks are the bits 4096 elements give.
func Figure7(w io.Writer, nBytes float64) Figure7Result {
	net := topology.Sunway()
	net.SupernodeSize = 4
	const p = 8

	res := Figure7Result{Bytes: nBytes}
	res.OriginalAnalytic = allreduce.OriginalRHDCost(net, p, nBytes, true).Total()
	res.ImprovedAnalytic = allreduce.ImprovedRHDCost(net, p, nBytes, true).Total()

	rhd, _ := allreduce.ScheduleByName(allreduce.NameRHD)
	price := func(m topology.Mapping) float64 {
		fab := topology.NewFabric(net, m, p)
		fab.ReduceOnCPE = true
		fab.BytesPerElem = nBytes / p
		return rhd.Price(&fab, 0, p, p).Time
	}
	res.OriginalSimulated = price(topology.AdjacentMapping{Q: 4})
	res.ImprovedSimulated = price(topology.RoundRobinMapping{Q: 4})

	section(w, "Figure 7: all-reduce, 8 nodes in 2 supernodes (q=4)")
	tw := newTab(w)
	fmt.Fprintln(tw, "variant\tanalytic (Eqns 2-6)\tsimulated")
	fmt.Fprintf(tw, "original (adjacent)\t%s\t%s\n", fmtTime(res.OriginalAnalytic), fmtTime(res.OriginalSimulated))
	fmt.Fprintf(tw, "improved (round-robin)\t%s\t%s\n", fmtTime(res.ImprovedAnalytic), fmtTime(res.ImprovedSimulated))
	fmt.Fprintf(tw, "improvement\t%sx\t%sx\n",
		fixed(res.OriginalAnalytic/res.ImprovedAnalytic, 2),
		fixed(res.OriginalSimulated/res.ImprovedSimulated, 2))
	tw.Flush()
	return res
}

// ScalingSeries is one curve of Figs. 10/11.
type ScalingSeries struct {
	Model    string
	SubBatch int
	Points   []train.ScalePoint
}

var scalingNodeCounts = []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// scalingWorkloads are the five series of Figs. 10 and 11.
func scalingWorkloads() []struct {
	Model string
	Batch int
} {
	return []struct {
		Model string
		Batch int
	}{
		{"alexnet-bn", 64}, {"alexnet-bn", 128}, {"alexnet-bn", 256},
		{"resnet50", 32}, {"resnet50", 64},
	}
}

// sweepWorkloads evaluates the five Fig. 10/11 series, fanning the
// independent node sweeps out across goroutines and returning them in
// workload order.
func sweepWorkloads() []ScalingSeries {
	workloads := scalingWorkloads()
	out := make([]ScalingSeries, len(workloads))
	parallelFor(len(workloads), func(i int) {
		wl := workloads[i]
		pts, err := train.Sweep(train.ScalingConfig{Model: wl.Model, SubBatch: wl.Batch}, scalingNodeCounts)
		if err != nil {
			panic(err)
		}
		out[i] = ScalingSeries{Model: wl.Model, SubBatch: wl.Batch, Points: pts}
	})
	return out
}

// Figure10 prints the speedup curves of paper Fig. 10 (strong-per-node
// scaling of AlexNet and ResNet-50 to 1024 nodes).
func Figure10(w io.Writer) []ScalingSeries {
	out := sweepWorkloads()
	section(w, "Figure 10: scalability of swCaffe (speedup over 1 node)")
	tw := newTab(w)
	fmt.Fprint(tw, "nodes")
	for _, wl := range scalingWorkloads() {
		fmt.Fprintf(tw, "\t%s B=%d", shortName(wl.Model), wl.Batch)
	}
	fmt.Fprintln(tw, "\tideal")
	for i, p := range scalingNodeCounts {
		fmt.Fprintf(tw, "%d", p)
		for _, s := range out {
			fmt.Fprintf(tw, "\t%s", fixed(s.Points[i].Speedup, 1))
		}
		fmt.Fprintf(tw, "\t%d\n", p)
	}
	tw.Flush()
	return out
}

// Figure11 prints the communication-share curves of paper Fig. 11.
func Figure11(w io.Writer) []ScalingSeries {
	out := sweepWorkloads()
	section(w, "Figure 11: communication time share (%) per iteration")
	tw := newTab(w)
	fmt.Fprint(tw, "nodes")
	for _, wl := range scalingWorkloads() {
		fmt.Fprintf(tw, "\t%s B=%d", shortName(wl.Model), wl.Batch)
	}
	fmt.Fprintln(tw)
	for i, p := range scalingNodeCounts {
		fmt.Fprintf(tw, "%d", p)
		for _, s := range out {
			fmt.Fprintf(tw, "\t%s", fixed(s.Points[i].CommFraction*100, 2))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return out
}

// funcScaleClasses is the class count of the functional sweeps'
// dataset and of funcScaleNet's classifier.
const funcScaleClasses = 4

// funcScaleNet is the small conv+fc workload of the functional scaling
// sweep: big enough to span several gradient buckets, small enough to
// simulate every CoreGroup at every node count.
func funcScaleNet(batch, classes int) (*core.Net, map[string]*tensor.Tensor, error) {
	net := core.NewNet("funcscale", "data", "label")
	net.AddLayers(
		core.NewConv(core.ConvConfig{Name: "conv1", Bottom: "data", Top: "conv1",
			NumOutput: 8, Kernel: 3, Stride: 1, Pad: 1, BiasTerm: true}),
		core.NewReLU("relu1", "conv1", "conv1", 0),
		core.NewInnerProduct(core.InnerProductConfig{Name: "fc1", Bottom: "conv1", Top: "fc1",
			NumOutput: 64, BiasTerm: true}),
		core.NewReLU("relu2", "fc1", "fc1", 0),
		core.NewInnerProduct(core.InnerProductConfig{Name: "fc2", Bottom: "fc1", Top: "fc2",
			NumOutput: classes, BiasTerm: true}),
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

// runFuncScalePoint executes one functional-scaling point: a
// DistTrainer over funcScaleNet under cfg — sub-batch 8, 8 KB buckets,
// the sweeps' solver — runs two rounds of LoadShards + Step on ds, the
// Steps pricing the reads when cfg.IO is set. It returns
// the last step's modeled decomposition and the stripe count the reads
// were priced at (0 without cfg.IO).
func runFuncScalePoint(cfg train.DistConfig, ds dataset.Dataset) (train.StepStats, int) {
	cfg.SubBatch, cfg.BucketBytes = 8, 8<<10
	cfg.Solver = core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	tr, err := train.NewDistTrainer(cfg, func() (*core.Net, map[string]*tensor.Tensor, error) {
		return funcScaleNet(cfg.SubBatch, funcScaleClasses)
	})
	if err != nil {
		panic(err)
	}
	defer tr.Close()
	for it := 0; it < 2; it++ {
		tr.LoadShards(ds, it)
		tr.Step()
	}
	storage, _, _ := tr.IOStorage()
	return tr.LastStep, storage.StripeCount
}

// FunctionalScalingRow is one measured point of the cluster-runtime
// sweep: barrier and overlap modeled step decompositions at p nodes,
// plus the topology-hierarchical overlap executed on a 2-node-
// supernode adjacent-mapped variant of the network (q = 2 puts real
// supernode crossings in reach of simulable node counts; the stock
// TaihuLight q = 256 would leave every test-sized cluster inside one
// supernode).
type FunctionalScalingRow struct {
	Nodes   int
	Backend string // train.BackendDES for event-driven rows, else goroutine
	Barrier train.StepStats
	Overlap train.StepStats
	Hier    train.StepStats
}

var (
	functionalNodeCounts = []int{2, 4, 8, 16, 64, 128}
	// The discrete-event tier: single-threaded event-driven scheduling
	// makes the paper's machine sizes functional, not just priced. The
	// goroutine tier stops at 128 because p live goroutine ranks per
	// collective stop being fast long before they stop being correct.
	functionalDESNodeCounts = []int{512, 1024}
)

// functionalTier is one (rank list, backend) slice of the
// functional-scaling sweep.
type functionalTier struct {
	nodes   []int
	backend string
}

// FunctionalScaling executes the multi-node cluster runtime end to end
// — every worker's passes as stream launches on its own simulated
// swnode.Node, collectives over simnet — and reports the measured
// modeled step decompositions, barrier vs bucketed overlap. It is the
// functional complement of Figs. 10/11's closed-form curves: the
// machinery the distributed trainer tests pin bit-identical across
// backends, so these numbers are executed, not priced. The goroutine
// tier runs pooled nodes up to p = 128; the DES tier carries the sweep
// to the paper's machine sizes.
func FunctionalScaling(w io.Writer) []FunctionalScalingRow {
	rows := functionalSweepRows([]functionalTier{
		{nodes: functionalNodeCounts},
		{nodes: functionalDESNodeCounts, backend: train.BackendDES},
	})
	printFunctionalTable(w, rows)
	return rows
}

// FunctionalScalingAt is the parameterized entry behind `swbench
// funcscale -p ... -backend ...`: one tier at the caller's rank list
// and backend, which alone picks the nodes (pooled on the goroutine
// backend, DES nodes on the DES backend).
func FunctionalScalingAt(w io.Writer, ranks []int, backend string) []FunctionalScalingRow {
	rows := functionalSweepRows([]functionalTier{{nodes: ranks, backend: backend}})
	printFunctionalTable(w, rows)
	return rows
}

// functionalSweepRows measures every tier's three arms (barrier,
// overlap, hierarchical-overlap). The tiers run side by side on
// parallelFor's workers; a tier's arms run one at a time, so that each
// trainer takes the per-rank views the one before it closed (see
// collective.Engine.Close) and a tier holds one trainer's views, not
// three. Each arm is internally deterministic, so the host-side
// parallelism never touches the modeled numbers.
func functionalSweepRows(tiers []functionalTier) []FunctionalScalingRow {
	ds := dataset.NewClusters(4096, funcScaleClasses, 1, 8, 8, 0.35, 77)
	// The hierarchical arm runs on a q=2 adjacent-mapped network so
	// the schedule actually crosses supernodes at these node counts.
	hierNet := topology.Sunway()
	hierNet.SupernodeSize = 2

	arms := make([][3][]train.StepStats, len(tiers))
	parallelFor(len(tiers), func(ti int) {
		tier := tiers[ti]
		for arm := range 3 {
			cfg := train.DistConfig{Backend: tier.backend, Overlap: arm > 0}
			if arm == 2 {
				cfg.AlgorithmName = allreduce.NameHierarchical
				cfg.Network, cfg.Mapping = hierNet, topology.AdjacentMapping{Q: 2}
			}
			pts := make([]train.StepStats, len(tier.nodes))
			for j, p := range tier.nodes {
				cfg.Nodes = p
				pts[j], _ = runFuncScalePoint(cfg, ds)
			}
			arms[ti][arm] = pts
		}
	})

	var rows []FunctionalScalingRow
	for ti, tier := range tiers {
		for i, p := range tier.nodes {
			rows = append(rows, FunctionalScalingRow{Nodes: p, Backend: tier.backend,
				Barrier: arms[ti][0][i], Overlap: arms[ti][1][i], Hier: arms[ti][2][i]})
		}
	}
	return rows
}

func printFunctionalTable(w io.Writer, rows []FunctionalScalingRow) {
	section(w, "Functional scaling: cluster runtime on simulated swnode.Nodes (measured, not priced)")
	tw := newTab(w)
	fmt.Fprintln(tw, "nodes\tmode\tbarrier step\tbarrier exposed\toverlap step\toverlap exposed\toverlap speedup\thier step (q=2 adj)\thier exposed")
	for _, r := range rows {
		b, o, h := r.Barrier, r.Overlap, r.Hier
		gain := 1.0
		if o.StepTime > 0 {
			gain = b.StepTime / o.StepTime
		}
		mode := "pooled"
		if r.Backend == train.BackendDES {
			mode = "des"
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\t%sx\t%s\t%s\n", r.Nodes, mode,
			fmtTime(b.StepTime), fmtTime(b.Exposed), fmtTime(o.StepTime), fmtTime(o.Exposed), fixed(gain, 3),
			fmtTime(h.StepTime), fmtTime(h.Exposed))
	}
	tw.Flush()
}

// IOScalingRow is one measured point of the input-pipeline sweep: the
// overlap trainer executed end to end with the read stage priced,
// under the single-split layout vs. the
// stripe advisor's pick.
type IOScalingRow struct {
	Nodes   int
	Backend string
	Pick    int             // advisor's stripe count
	Flat    train.StepStats // StripeCount = 1
	Advised train.StepStats // AutoStripe
}

// FunctionalScalingIO is the `swbench funcscale -io` entry: at each
// rank count it runs the overlapped cluster runtime with the input
// pipeline enabled — per-rank shard reads priced through the pario
// model at p concurrent readers, the prefetch modeled — once in
// single-split mode and once under the stripe-count advisor, and
// reports the measured step decompositions side by side, one trainer at
// a time (see functionalSweepRows). The advisor's win is the ExposedIO
// column going to (or toward) zero while the single-split column pays
// the paper's Sec. V-B contention.
func FunctionalScalingIO(w io.Writer, ranks []int, backend string) []IOScalingRow {
	ds := dataset.NewClusters(4096, funcScaleClasses, 1, 8, 8, 0.35, 77)
	rows := make([]IOScalingRow, len(ranks))
	for i := range 2 * len(ranks) {
		pi, arm := i/2, i%2
		p := ranks[pi]
		st, stripes := runFuncScalePoint(train.DistConfig{
			Nodes: p, Overlap: true, Backend: backend,
			IO: &train.IOConfig{
				Storage: pario.DefaultTaihuLight(1), BatchBytes: 64 << 10, AutoStripe: arm == 1,
			},
		}, ds)
		if arm == 0 {
			rows[pi].Nodes, rows[pi].Backend, rows[pi].Flat = p, backend, st
		} else {
			rows[pi].Advised, rows[pi].Pick = st, stripes
		}
	}

	section(w, "Input pipeline: priced prefetch at p concurrent readers, single-split vs stripe advisor")
	tw := newTab(w)
	fmt.Fprintln(tw, "nodes\tstep (io off)\tread s=1\texposed io s=1\tadvisor pick\tread advised\texposed io advised")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\ts=%d\t%s\t%s\n", r.Nodes,
			fmtTime(r.Flat.StepTime-r.Flat.ExposedIO),
			fmtTime(r.Flat.IO), fmtTime(r.Flat.ExposedIO),
			r.Pick, fmtTime(r.Advised.IO), fmtTime(r.Advised.ExposedIO))
	}
	tw.Flush()
	return rows
}

func shortName(model string) string {
	switch model {
	case "alexnet-bn", "alexnet-lrn":
		return "AlexNet"
	case "resnet50":
		return "ResNet50"
	case "vgg16":
		return "VGG-16"
	case "vgg19":
		return "VGG-19"
	case "googlenet":
		return "GoogleNet"
	}
	return model
}

// IOStripingRow is one configuration of the Sec. V-B study.
type IOStripingRow struct {
	Stripes     int
	Procs       int
	ReadTime    float64
	AggregateGB float64
}

// IOStriping evaluates mini-batch read time under the default
// single-split layout versus the 32-stripe/256 MB layout swCaffe
// configures (paper Sec. V-B; no figure in the paper, so it is
// swbench's io artifact).
func IOStriping(w io.Writer) []IOStripingRow {
	batch := pario.ImageNetBatchBytes(256) // ~192 MB, the paper's example
	var rows []IOStripingRow
	section(w, "Sec. V-B: parallel input, 256-image mini-batch (~192 MB) per process")
	tw := newTab(w)
	fmt.Fprintln(tw, "stripes\tprocs\tread time\taggregate GB/s")
	for _, stripes := range []int{1, 32} {
		cfg := pario.DefaultTaihuLight(stripes)
		for _, procs := range []int{1, 8, 32, 128, 512, 1024} {
			r := IOStripingRow{
				Stripes:     stripes,
				Procs:       procs,
				ReadTime:    cfg.ReadTime(procs, batch),
				AggregateGB: cfg.AggregateBandwidth(procs, batch) / 1e9,
			}
			rows = append(rows, r)
			fmt.Fprintf(tw, "%d\t%d\t%s\t%s\n", stripes, procs, fmtTime(r.ReadTime), fixed(r.AggregateGB, 1))
		}
	}
	tw.Flush()
	return rows
}

// PackRow compares per-layer vs packed all-reduce for one model.
type PackRow struct {
	Model    string
	Nodes    int
	PerLayer float64
	Packed   float64
}

// PackAblation evaluates the gradient-packing optimization of
// Sec. V-A: one all-reduce over the concatenated gradients versus one
// per layer (VGG-16 spans 1.7 KB to 411 MB across its blobs).
func PackAblation(w io.Writer) []PackRow {
	net := topology.Sunway()
	var rows []PackRow
	section(w, "Ablation: packed vs per-layer gradient all-reduce (improved RHD)")
	tw := newTab(w)
	fmt.Fprintln(tw, "model\tnodes\tper-layer\tpacked\tspeedup")
	for _, name := range []string{"alexnet-bn", "vgg16", "resnet50"} {
		build, _ := models.ByName(name)
		spec := build(1)
		var sizes []int64
		for i := range spec.Layers {
			if p := spec.Layers[i].Params(); p > 0 {
				sizes = append(sizes, p*4)
			}
		}
		for _, p := range []int{64, 1024} {
			r := PackRow{
				Model: name, Nodes: p,
				PerLayer: allreduce.PerLayerAllreduceCost(net, p, sizes, true),
				Packed:   allreduce.PackedAllreduceCost(net, p, sizes, true),
			}
			rows = append(rows, r)
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%sx\n", name, p, fmtTime(r.PerLayer), fmtTime(r.Packed), fixed(r.PerLayer/r.Packed, 2))
		}
	}
	tw.Flush()
	return rows
}

// AllreduceRow is one point of the algorithm sweep ablation.
type AllreduceRow struct {
	Algorithm string
	Nodes     int
	Bytes     float64
	Time      float64
}

// AllreduceAblation sweeps the four all-reduce variants over node
// counts and message sizes (swbench's allreduce artifact), using the
// analytic cost models.
func AllreduceAblation(w io.Writer) []AllreduceRow {
	net := topology.Sunway()
	var rows []AllreduceRow
	section(w, "Ablation: all-reduce algorithm sweep (analytic, adjacent vs topo-aware)")
	tw := newTab(w)
	fmt.Fprintln(tw, "bytes\tnodes\tring\tbinomial\tRHD adjacent\tRHD round-robin")
	for _, nBytes := range []float64{1.7e3, 1e6, 97.7e6, 232.6e6} {
		for _, p := range []int{8, 64, 256, 1024} {
			ring := allreduce.RingCost(net, p, nBytes, true).Total()
			bin := allreduce.BinomialCost(net, p, nBytes, true).Total()
			adj := allreduce.OriginalRHDCost(net, p, nBytes, true).Total()
			rr := allreduce.ImprovedRHDCost(net, p, nBytes, true).Total()
			rows = append(rows,
				AllreduceRow{"ring", p, nBytes, ring},
				AllreduceRow{"binomial", p, nBytes, bin},
				AllreduceRow{"rhd-adjacent", p, nBytes, adj},
				AllreduceRow{"rhd-roundrobin", p, nBytes, rr},
			)
			fmt.Fprintf(tw, "%.4g\t%d\t%s\t%s\t%s\t%s\n", nBytes, p,
				fmtTime(ring), fmtTime(bin), fmtTime(adj), fmtTime(rr))
		}
	}
	tw.Flush()
	return rows
}
