package train

import (
	"swcaffe/internal/collective"
	"swcaffe/internal/elastic"
	"swcaffe/internal/perf"
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// One Step, both modes (paper Algorithm 1 line 9 and Sec. V-A).
// Backward propagation produces layer gradients last-to-first, and
// every rank packs each layer's gradients into its view as they appear
// (Produce). The collective engine partitions the packed vector into
// buckets and signals each one the moment every worker has produced
// it; the step flushes it — all-reduce, then the average drained into
// the gradients (Commit) — and finally composes the modeled timeline.
//
// Overlap only changes the layout. Under cfg.Overlap the buckets are
// contiguous ranges cut at layer boundaries (snapped to each
// algorithm's alignment — the ring gets chunk-aligned buckets reduced
// with the full ring's per-chunk schedule, so every algorithm is
// bit-identical under overlap), optionally sized by the α-β selector,
// and each bucket's all-reduce runs while the remaining backward layers
// keep computing: on the host, since the collective runs while worker
// passes are still in backward, and on the modeled clock, where Compose
// chains per-bucket communication behind the per-layer backward costs
// priced on one SW26010 core group. Without it the layout is one bucket,
// [0, total), ready when the last layer's backward completes: the
// barrier, whose flush Compose places at the end of compute and exposes
// in full.

// ensureTimeline lazily prices the per-layer modeled compute timeline.
// Each node's pass launch is charged the whole pass, computeEnd, so
// layerDone doubles as the per-node modeled production time of each
// layer's gradient.
func (t *DistTrainer) ensureTimeline() {
	if t.layerDone != nil {
		return
	}
	net := t.Workers[0].Net
	perLayer, total := net.Cost(perf.NewSWCG())
	t.computeEnd = total.Forward + total.Backward
	t.layerDone = make([]float64, len(perLayer))
	cum := total.Forward
	for i := len(perLayer) - 1; i >= 0; i-- {
		cum += perLayer[i].Backward
		t.layerDone[i] = cum
	}
}

// ensureEngine lazily builds the collective engine the step flushes
// through: the priced timeline feeds its auto-bucket selector and
// makespan composition, and its per-rank packed staging replaces the
// per-trainer buffers the pre-engine paths kept by hand.
func (t *DistTrainer) ensureEngine() {
	t.ensureTimeline()
	if t.engine != nil {
		return
	}
	net := t.Workers[0].Net
	params := make([]collective.ParamInfo, 0, len(net.LearnableParams()))
	for li, l := range net.Layers() {
		for _, p := range l.Params() {
			if p.LRMult > 0 {
				params = append(params, collective.ParamInfo{Layer: li, Elems: p.Diff.Len()})
			}
		}
	}
	eng, err := collective.New(collective.Config{
		Params:        params,
		Layers:        len(net.Layers()),
		Ranks:         len(t.Workers),
		Network:       t.cfg.Network,
		Mapping:       t.cfg.Mapping,
		LayerDone:     t.layerDone,
		ComputeEnd:    t.computeEnd,
		AlgorithmName: t.cfg.AlgorithmName,
		BucketBytes:   t.cfg.BucketBytes,
		AutoBucket:    t.cfg.AutoBucket,
		Barrier:       !t.cfg.Overlap,
		FlushHook:     t.flushHook(),
	})
	if err != nil {
		// Configuration errors are caught by NewDistTrainer; anything
		// left is a programming error.
		panic(err)
	}
	if t.cfg.Tracer != nil {
		// The cluster-level flush track sits one pid past the rank
		// tracks; a rebuilt engine (shrink re-selects the plan) re-wires
		// the same tracer for the new shape.
		eng.SetTrace(t.cfg.Tracer, len(t.Workers))
	}
	t.engine = eng
	t.grads = t.grads[:0]
	for _, w := range t.replicas() {
		t.grads = append(t.grads, w.diffs)
	}
}

// Step runs one synchronous iteration over the shards loaded into each
// worker's Data/Labels tensors and returns the mean loss across
// workers: the passes pack their gradients layer by layer, each bucket
// is all-reduced and averaged into the gradients as soon as every
// worker has produced it, and every replica takes the same update.
// cfg.Overlap picks the layout — per-layer buckets, or the barrier's
// one.
func (t *DistTrainer) Step() float32 {
	t.ensureEngine()
	eng := t.engine
	nb := len(eng.Buckets())
	eng.BeginStep()

	// Each worker's pass runs as a launch on its simulated node.
	step := t.iter
	t.launchPasses()

	// Flush loop: bucket b's collective starts the moment the last
	// worker produced it, concurrent with the remaining backward. A
	// pass panic is recovered into its launch Event, so a poisoned
	// worker can never complete a bucket: without the failed arm the
	// loop would wait forever on a signal that cannot come. On that
	// signal the loop joins every pass, and the join re-raises the
	// lowest failed rank's panic.
	views := eng.RankViews()
	flushErr := func() (r any) {
		defer func() { r = recover() }()
		for b := 0; b < nb; b++ {
			select {
			case <-eng.Ready(b):
			case <-t.failed:
				t.nodes.Sync()
			}
			// outs[r] is bucket b's range of rank r's view, reduced in place.
			// Commit drains it into the workers' gradients right here — on
			// the clean path only, and before the next flush, whose pad may
			// spill into it (see collective.Bucket). The drain touches only
			// parameters every worker has already produced.
			var res topology.Result
			var outs [][]float32
			if t.desCluster != nil {
				res, outs = eng.FlushSegDES(t.desCluster, b, t.pool.Pool)
			} else {
				res, outs = t.cluster.RunGather(func(n *simnet.Node) []float32 {
					return eng.ReduceSeg(n, b, views[n.Rank])
				})
			}
			t.diverged = max(t.diverged, eng.Commit(b, outs, res, t.grads, t.pool.Pool))
		}
		return nil
	}()
	if flushErr != nil {
		// A failed pass was joined above. A collective panicking while
		// workers are still mid-backward has joined its own ranks but not
		// the passes: quiesce them before letting the failure escape, so
		// a caller that recovers can reuse the trainer without racing
		// them. The join also clears the node-level pass poison by
		// re-raising it, which we swallow in favor of the root failure.
		func() {
			defer func() { recover() }()
			t.nodes.Sync()
		}()
		panic(flushErr)
	}
	t.nodes.Sync()
	compute := t.stepCompute()

	// Every bucket was averaged into the gradients as it committed:
	// update every replica identically.
	t.applyUpdate()

	// Modeled timeline: the engine chains the bucket collectives
	// behind their production times on the node timelines; exposed
	// communication is whatever outlives backward, and the barrier's
	// whole flush. Compose also finalizes the per-bucket attribution
	// (and emits the step's flush spans when traced) — observation only,
	// same arithmetic.
	if t.cfg.Tracer != nil {
		eng.SetTraceBase(t.traceTime)
	}
	commSum, exposed, stepTime := eng.Compose(compute)
	t.bucketScratch = append(t.bucketScratch[:0], eng.LastBuckets()...)
	var msgs, xMsgs, xBytes int64
	for i := range t.bucketScratch {
		msgs += t.bucketScratch[i].Msgs
		xMsgs += t.bucketScratch[i].CrossMsgs
		xBytes += t.bucketScratch[i].CrossBytes
	}
	t.LastStep = StepStats{
		Compute:    compute,
		Comm:       commSum,
		Exposed:    exposed,
		StepTime:   stepTime,
		Msgs:       msgs,
		CrossMsgs:  xMsgs,
		CrossBytes: xBytes,
		Buckets:    t.bucketScratch,
	}
	t.composeIO(step)
	t.ComputeTime += compute
	t.CommTime += commSum
	t.ExposedCommTime += t.LastStep.Exposed
	if t.cfg.Tracer != nil {
		// Advance the trace anchor to the next step's pass start on the
		// node timelines (stream chaining starts pass k at k·compute).
		t.traceTime += compute
	}
	return t.meanLoss()
}

// stepPass is rank i's pass of a Step, run as the launch on its node:
// each layer's gradients are packed into the engine as backward
// produces them (Produce), and the launch is charged the whole priced
// pass cost in one tick (an incremental walk would rebuild computeEnd
// from float differences and shed bits); the per-layer production
// offsets of the modeled overlay come from layerDone, where the engine
// flushes buckets.
func (t *DistTrainer) stepPass(i int, w *Worker) float64 {
	fp, step, eng := t.cfg.Faults, t.iter, t.engine
	t.pass(i, w, func(li int) {
		if fp != nil {
			// Packing is incremental: the pack fault fires (once) at
			// the rank's first Produce of the step.
			fp.Check(i, step, elastic.PhasePack, -1)
		}
		eng.Produce(i, li, w.diffs)
	})
	return t.computeEnd
}

// Buckets reports the collective engine's bucket count — 1 for the
// barrier — or 0 before the first Step builds the engine.
func (t *DistTrainer) Buckets() int {
	if t.engine == nil {
		return 0
	}
	return len(t.engine.Buckets())
}

// Engine exposes the trainer's collective engine (nil before the
// first Step), for bucket-layout and auto-selection introspection.
func (t *DistTrainer) Engine() *collective.Engine { return t.engine }
