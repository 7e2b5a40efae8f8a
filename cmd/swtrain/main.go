// Command swtrain trains a small convolutional network functionally on
// the synthetic cluster dataset with the full swCaffe stack: layers,
// net, SGD solver, the 4-core-group intra-node averaging of
// Algorithm 1, and optionally multi-node SSGD over the simulated
// TaihuLight interconnect.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/collective"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/elastic"
	"swcaffe/internal/netdef"
	"swcaffe/internal/obs"
	"swcaffe/internal/pario"
	"swcaffe/internal/swdnn"
	"swcaffe/internal/tensor"
	"swcaffe/internal/topology"
	"swcaffe/internal/train"
)

func buildNet(batch, classes int) (*core.Net, map[string]*tensor.Tensor, error) {
	net := core.NewNet("smallconv", "data", "label")
	net.AddLayers(
		core.NewConv(core.ConvConfig{Name: "conv1", Bottom: "data", Top: "conv1",
			NumOutput: 8, Kernel: 3, Stride: 1, Pad: 1, BiasTerm: true}),
		core.NewReLU("relu1", "conv1", "conv1", 0),
		core.NewPool(core.PoolConfig{Name: "pool1", Bottom: "conv1", Top: "pool1",
			Method: core.MaxPool, Kernel: 2, Stride: 2}),
		core.NewInnerProduct(core.InnerProductConfig{Name: "fc1", Bottom: "pool1", Top: "fc1",
			NumOutput: 32, BiasTerm: true}),
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

func main() {
	iters := flag.Int("iters", 200, "training iterations")
	batch := flag.Int("batch", 32, "per-node mini-batch")
	nodes := flag.Int("nodes", 4, "simulated nodes (1 = single-node SGD)")
	lr := flag.Float64("lr", 0.05, "base learning rate")
	classes := flag.Int("classes", 4, "synthetic classes")
	netFile := flag.String("net", "", "optional netdef file overriding the built-in architecture (inputs must be 'data' (Bx1x8x8) and 'label')")
	cg4 := flag.Bool("cg4", false, "single-node Algorithm-1 trainer: quarter-batch passes on the 4 simulated CoreGroups of one swnode.Node (batch must divide by 4)")
	overlap := flag.Bool("overlap", false, "multi-node: bucketed gradient flush overlapping the all-reduce with backward (vs the pack/reduce/unpack barrier)")
	bucketKB := flag.Int("bucket-kb", 0, "overlap bucket size in KB (0 = default)")
	autoBucket := flag.Bool("auto-bucket", false, "multi-node: let the collective engine pick the bucket size from the α-β cost model (overrides -bucket-kb)")
	alg := flag.String("alg", "", "multi-node all-reduce: ring | binomial-tree | recursive-halving-doubling | hierarchical (hier) | auto (default RHD; auto lets the engine's plan selector pick the algorithm and bucket cap; the engine keeps every choice bit-identical under -overlap)")
	checkpointDir := flag.String("checkpoint-dir", "", "multi-node: directory for periodic on-disk checkpoints (versioned gob, atomic rename)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "multi-node: checkpoint every N completed iterations (0 = never; an in-memory step-0 checkpoint is still kept whenever -faultplan is set)")
	resume := flag.String("resume", "", "multi-node: checkpoint file to restore before training (bit-exact: the resumed run continues the saved run's stream)")
	faultplan := flag.String("faultplan", "", `multi-node: deterministic fault plan "r@s:phase[,...]" — kill rank r at step s during forward | backward | pack | flush | flush-bucket-k; the driver shrinks the world and resumes from the last checkpoint`)
	traceOut := flag.String("trace", "", "multi-node: write a Chrome/Perfetto trace-event JSON of the run on the simulated clock (pass launches per rank/CG, bucket flushes, hierarchical phases, elastic events) to this file; open it at ui.perfetto.dev")
	showMetrics := flag.Bool("metrics", false, "multi-node: print the deterministic metrics snapshot (sorted name/value lines) after training")
	explainPlan := flag.Bool("explain-plan", false, "multi-node: print the collective engine's plan audit — the selector's candidate sweep and the last step's per-bucket priced vs realized costs")
	qSize := flag.Int("q", 0, "multi-node: override the supernode size q (0 = TaihuLight's 256); a small q makes small runs cross supernode links, e.g. -q 4 -nodes 8 -alg hier")
	ioPipe := flag.Bool("io", false, "enable the input pipeline: each step's shard read is priced through the pario striped-storage model (p concurrent readers multi-node, 1 with -cg4) with the next batch's read prefetched behind the step; exposed read time joins the step report")
	stripeCount := flag.Int("stripes", 0, "with -io: dataset stripe count on the 32 disk arrays (0 = multi-node stripe advisor picks it; -cg4 defaults to single-split)")
	ioBatchKB := flag.Int("io-batch-kb", 0, "with -io: modeled mini-batch bytes per reader in KB (0 = the actual input tensor size)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "swtrain: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	// Usage errors are refused up front, before any output, with one
	// stderr line and exit status 2 (the flag package's own).
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "swtrain: "+format+"\n", args...)
		os.Exit(2)
	}
	if *nodes < 1 || *batch < 1 || *classes < 1 || *iters < 1 {
		usage("-nodes, -batch, -classes and -iters must be at least 1")
	}
	if math.IsNaN(*lr) || math.IsInf(*lr, 0) {
		usage("-lr must be finite")
	}
	if *qSize < 0 {
		usage("-q must not be negative")
	}
	if arrays := pario.DefaultTaihuLight(0).Arrays; *stripeCount < 0 || *stripeCount > arrays {
		usage("-stripes must be in [0, %d], the disk arrays the store stripes over", arrays)
	}
	if *bucketKB < 0 || *ioBatchKB < 0 {
		usage("-bucket-kb and -io-batch-kb must not be negative")
	}
	// Both become bytes by << 10; a larger value would wrap negative,
	// which downstream reads as "default".
	if maxKB := math.MaxInt >> 10; *bucketKB > maxKB || *ioBatchKB > maxKB {
		usage("-bucket-kb and -io-batch-kb must be at most %d", maxKB)
	}
	// Validate -alg up front: an unknown name lists the registry
	// instead of surfacing a bare construction error.
	if *alg != "" && allreduce.Canonical(*alg) != collective.NameAuto {
		if _, err := allreduce.ByName(*alg); err != nil {
			usage("unknown -alg %q; valid: %s | %s", *alg, strings.Join(allreduce.Names(), " | "), collective.NameAuto)
		}
	}

	elasticUsed := *checkpointDir != "" || *checkpointEvery > 0 || *resume != "" || *faultplan != ""
	obsUsed := *traceOut != "" || *showMetrics || *explainPlan || *qSize > 0
	if (elasticUsed || obsUsed) && (*cg4 || *nodes == 1) {
		usage("-checkpoint-dir/-checkpoint-every/-resume/-faultplan/-trace/-metrics/-explain-plan/-q are multi-node flags")
	}
	if !*ioPipe && (*stripeCount != 0 || *ioBatchKB != 0) {
		usage("-stripes/-io-batch-kb need -io")
	}
	if *ioPipe && *nodes == 1 && !*cg4 {
		usage("-io needs a trainer with an input pipeline (-cg4 or -nodes > 1)")
	}
	if *cg4 {
		if *nodes != 4 || *overlap || *bucketKB != 0 {
			// -nodes defaults to 4, which -cg4 repurposes as the CG count.
			usage("-cg4 is single-node; it conflicts with -nodes/-overlap/-bucket-kb")
		}
		// With -net the netdef declares its own input batch, which
		// becomes the per-CG quarter batch; the built-in architecture
		// splits -batch four ways.
		if *netFile == "" && *batch%4 != 0 {
			usage("-cg4 needs -batch divisible by 4")
		}
	}
	var faults *elastic.FaultPlan
	if *faultplan != "" {
		var err error
		if faults, err = elastic.ParseFaultPlan(*faultplan); err != nil {
			usage("%v", err)
		}
	}

	ds := dataset.NewClusters(4096, *classes, 1, 8, 8, 0.35, 42)
	solverCfg := core.SolverConfig{BaseLR: *lr, Momentum: 0.9, WeightDecay: 5e-4}

	build := func() (*core.Net, map[string]*tensor.Tensor, error) { return buildNet(*batch, *classes) }
	if *netFile != "" {
		build = func() (*core.Net, map[string]*tensor.Tensor, error) {
			f, err := os.Open(*netFile)
			if err != nil {
				return nil, nil, err
			}
			defer f.Close()
			def, err := netdef.Parse(f)
			if err != nil {
				return nil, nil, err
			}
			inputs, err := def.Build()
			if err != nil {
				return nil, nil, err
			}
			return def.Net, inputs, nil
		}
	}

	if *cg4 {
		qbuild := build
		if *netFile == "" {
			q := *batch / 4
			qbuild = func() (*core.Net, map[string]*tensor.Tensor, error) { return buildNet(q, *classes) }
		}
		trainer, err := train.NewCGTrainer(qbuild, solverCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer trainer.Close()
		quarter := trainer.CGs[0].Data.N
		if *ioPipe {
			// One node reads alone, so the advisor has nothing to arbitrate:
			// -stripes 0 means the paper's default single-split layout here.
			s := *stripeCount
			if s <= 0 {
				s = 1
			}
			trainer.AttachInput(ds, pario.DefaultTaihuLight(s))
		}
		for it := 0; it < *iters; it++ {
			for i, w := range trainer.CGs {
				dataset.Batch(ds, (it*4+i)*quarter, w.Data, w.Labels)
			}
			loss := trainer.Step()
			if it%20 == 0 || it == *iters-1 {
				if *ioPipe {
					fmt.Printf("iter %4d  loss %.4f  (modeled node time so far %.4fs; batch read %.2fus, %.2fus exposed)\n",
						it, loss, trainer.SimTime, trainer.LastRead*1e6, trainer.LastExposedRead*1e6)
				} else {
					fmt.Printf("iter %4d  loss %.4f  (modeled node time so far %.4fs)\n", it, loss, trainer.SimTime)
				}
			}
		}
		w := trainer.CGs[0]
		st := trainer.Node().Stats()
		fmt.Printf("final accuracy on 512 fresh examples: %.1f%%\n",
			evalAccuracy(w.Net, map[string]*tensor.Tensor{"data": w.Data, "label": w.Labels}, ds, quarter)*100)
		fmt.Printf("4 simulated CGs: modeled step time total %.4fs, %.0f MFlops summed on the meshes\n",
			trainer.SimTime, st.Flops/1e6)
		if *ioPipe {
			fmt.Printf("input pipeline: modeled read total %.2fus, exposed %.2fus (single reader)\n",
				trainer.ReadTime*1e6, trainer.ExposedReadTime*1e6)
		}
		return
	}

	if *nodes == 1 {
		net, inputs, err := build()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		solver := core.NewSolver(net, solverCfg)
		for it := 0; it < *iters; it++ {
			dataset.Batch(ds, it**batch, inputs["data"], inputs["label"])
			loss := solver.Step()
			if it%20 == 0 || it == *iters-1 {
				fmt.Printf("iter %4d  loss %.4f  lr %.4f\n", it, loss, solver.LR())
			}
		}
		fmt.Printf("final accuracy on 512 fresh examples: %.1f%%\n",
			evalAccuracy(net, inputs, ds, *batch)*100)
		return
	}

	var network *topology.Network
	if *qSize > 0 {
		network = topology.Sunway()
		network.SupernodeSize = *qSize
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.New()
	}

	var ioCfg *train.IOConfig
	if *ioPipe {
		s := *stripeCount
		if s <= 0 {
			s = 1
		}
		ioCfg = &train.IOConfig{
			Storage:    pario.DefaultTaihuLight(s),
			AutoStripe: *stripeCount == 0,
			BatchBytes: int64(*ioBatchKB) << 10,
		}
	}
	trainer, err := train.NewDistTrainer(train.DistConfig{
		Nodes: *nodes, SubBatch: *batch, Solver: solverCfg,
		Overlap: *overlap, BucketBytes: *bucketKB << 10, AutoBucket: *autoBucket,
		AlgorithmName: *alg, Network: network, Faults: faults, Tracer: tracer, IO: ioCfg,
	}, build)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer trainer.Close()
	if *resume != "" {
		st, err := elastic.Load(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swtrain:", err)
			os.Exit(1)
		}
		if err := trainer.Restore(st); err != nil {
			fmt.Fprintln(os.Stderr, "swtrain:", err)
			os.Exit(1)
		}
		fmt.Printf("resumed from %s at step %d (saved at world size %d)\n", *resume, st.Step, st.World)
	}
	// The elastic driver: train by trainer.Iter() so a recovered step
	// retries, keep the last checkpoint in memory (an implicit step-0
	// one when faults are armed before any -checkpoint-every tick),
	// and on a failure shrink the world and restore it.
	var last *elastic.State
	if faults != nil || *checkpointEvery > 0 {
		last = trainer.Checkpoint()
	}
	step := func() (loss float32, pan any) {
		defer func() { pan = recover() }()
		return trainer.Step(), nil
	}
	for trainer.Iter() < *iters {
		it := trainer.Iter()
		trainer.LoadShards(ds, it)
		loss, pan := step()
		if pan != nil {
			failed := trainer.FailedRanks()
			if len(failed) == 0 {
				if r, ok := elastic.FailedRank(pan); ok {
					failed = []int{r}
				}
			}
			if len(failed) == 0 || last == nil {
				panic(pan) // not an identifiable rank failure, or nothing to restore
			}
			p := len(trainer.Workers)
			fmt.Printf("step %d: rank(s) %v failed (%v)\n", it, failed, pan)
			if err := trainer.Shrink(failed...); err != nil {
				fmt.Fprintln(os.Stderr, "swtrain:", err)
				os.Exit(1)
			}
			if err := trainer.Restore(last); err != nil {
				fmt.Fprintln(os.Stderr, "swtrain:", err)
				os.Exit(1)
			}
			fmt.Printf("shrunk world %d -> %d, restored checkpoint at step %d; continuing\n",
				p, len(trainer.Workers), last.Step)
			continue
		}
		if *checkpointEvery > 0 && trainer.Iter()%*checkpointEvery == 0 {
			last = trainer.Checkpoint()
			if *checkpointDir != "" {
				path := filepath.Join(*checkpointDir, fmt.Sprintf("step%04d.ckpt", last.Step))
				if err := elastic.Save(path, last); err != nil {
					fmt.Fprintln(os.Stderr, "swtrain:", err)
					os.Exit(1)
				}
			}
		}
		if it%20 == 0 || it == *iters-1 {
			st := trainer.LastStep
			fmt.Printf("iter %4d  loss %.4f  (simulated comm so far %.4fs; step census %d msgs, %d cross-supernode, %d B across)\n",
				it, loss, trainer.CommTime, st.Msgs, st.CrossMsgs, st.CrossBytes)
		}
	}
	if n := faults.Pending(); n > 0 {
		fmt.Fprintf(os.Stderr, "swtrain: %d planned fault(s) never fired (rank out of range, or step beyond -iters)\n", n)
		os.Exit(1)
	}
	if d := trainer.ParamsDiverged(); d > 1e-6 {
		fmt.Fprintf(os.Stderr, "replica divergence: %g\n", d)
		os.Exit(1)
	}
	w := trainer.Workers[0]
	fmt.Printf("final accuracy on 512 fresh examples: %.1f%%\n",
		evalAccuracy(w.Net, map[string]*tensor.Tensor{"data": w.Data, "label": w.Labels}, ds, *batch)*100)
	mode := "barrier"
	if *overlap {
		mode = fmt.Sprintf("overlap (%d buckets)", trainer.Buckets())
	}
	fmt.Printf("replicas consistent across %d nodes [%s]; simulated all-reduce %.4fs, exposed %.4fs, last modeled step %.6fs\n",
		len(trainer.Workers), mode, trainer.CommTime, trainer.ExposedCommTime, trainer.LastStep.StepTime)
	if eng := trainer.Engine(); eng != nil {
		sel := "fixed"
		if eng.Auto() {
			sel = "α-β auto-selected"
		}
		fmt.Printf("collective engine: %s strategy, %s bucket cap %d KB, %d buckets over %d gradient elements\n",
			eng.StrategyName(), sel, eng.BucketBytes()>>10, trainer.Buckets(), eng.TotalElems())
		if plan := eng.Plan(); plan != nil {
			fmt.Printf("plan selector: chose %s over %v (est. exposed comm %.6fs)\n",
				plan.Algorithm, collective.AutoAlgorithms, plan.Exposed)
		}
	}
	fmt.Printf("cluster runtime: %d simulated nodes, modeled compute %.4fs, node-timeline frontier %.4fs, %d launches on rank 0\n",
		len(trainer.Workers), trainer.ComputeTime, trainer.Node(0).SimTime(), trainer.Node(0).Launches())
	if *ioPipe {
		storage, readers, ioBytes := trainer.IOStorage()
		layout := fmt.Sprintf("stripes=%d", storage.StripeCount)
		if pick, _ := trainer.IOPlan(); pick != nil {
			layout += " (advisor pick)"
		}
		fmt.Printf("input pipeline: %s, %d B/shard at %d concurrent readers; modeled read %.4fs, exposed %.4fs\n",
			layout, ioBytes, readers, trainer.IOTime, trainer.ExposedIOTime)
	}
	if *explainPlan {
		fmt.Println()
		if err := trainer.ExplainPlan(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "swtrain:", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		if err := tracer.WriteFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "swtrain:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d events written to %s (open at ui.perfetto.dev)\n", tracer.Len(), *traceOut)
	}
	if *showMetrics {
		reg := obs.Default()
		// Pull-style bridges for values owned outside the registry.
		reg.GaugeFunc("plan_cache.hits", func() float64 { h, _ := swdnn.PlanCacheCounters(); return float64(h) })
		reg.GaugeFunc("plan_cache.misses", func() float64 { _, m := swdnn.PlanCacheCounters(); return float64(m) })
		reg.Gauge("swnode.launches").Set(float64(trainer.Launches()))
		fmt.Println()
		fmt.Println("metrics:")
		if err := reg.Write(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "swtrain:", err)
			os.Exit(1)
		}
	}
}

func evalAccuracy(net *core.Net, inputs map[string]*tensor.Tensor, ds dataset.Dataset, batch int) float64 {
	correct, total := 0, 0
	// The score blob is whatever feeds the loss layer.
	scoreBlob := "fc2"
	for _, l := range net.Layers() {
		if l.Type() == "SoftmaxWithLoss" {
			scoreBlob = l.Bottoms()[0]
		}
	}
	scores := net.Blob(scoreBlob)
	classes := scores.C
	for start := 100000; total < 512; start += batch {
		dataset.Batch(ds, start, inputs["data"], inputs["label"])
		net.Forward(core.Test)
		for b := 0; b < batch && total < 512; b++ {
			bestIdx, best := 0, scores.Data[b*classes]
			for c := 1; c < classes; c++ {
				if scores.Data[b*classes+c] > best {
					best, bestIdx = scores.Data[b*classes+c], c
				}
			}
			if bestIdx == int(inputs["label"].Data[b]) {
				correct++
			}
			total++
		}
	}
	return float64(correct) / float64(total)
}
