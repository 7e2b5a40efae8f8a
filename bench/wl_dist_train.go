package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/collective"
	"swcaffe/internal/dataset"
	"swcaffe/internal/elastic"
	"swcaffe/internal/obs"
	"swcaffe/internal/pario"
	"swcaffe/internal/perf"
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
	"swcaffe/internal/train"
)

const (
	distNodes     = 8
	distSupernode = 4 // q: two supernodes at p = 8, so "auto" has a hierarchy to weigh
	twinSteps     = 3
)

// distConfig is the full step model: bucketed overlap, the 2-D plan
// selector, the priced input pipeline with the stripe advisor.
func distConfig(nodes int, backend string) train.DistConfig {
	netw := topology.Sunway()
	netw.SupernodeSize = distSupernode
	return train.DistConfig{
		Nodes: nodes, SubBatch: netSubBatch, Solver: scaleSolver,
		Overlap: true, AlgorithmName: collective.NameAuto,
		Network: netw, Mapping: topology.AdjacentMapping{Q: distSupernode},
		Backend: backend,
		IO:      &train.IOConfig{Storage: pario.DefaultTaihuLight(1), BatchBytes: 1 << 20, AutoStripe: true},
	}
}

// logStep hashes one step's loss and modeled decomposition.
func logStep(s *simLog, loss float32, st train.StepStats) {
	s.f64("loss", float64(loss))
	s.f64("compute", st.Compute)
	s.f64("comm", st.Comm)
	s.f64("exposed", st.Exposed)
	s.f64("step", st.StepTime)
	s.f64("io", st.IO)
	s.f64("exposed_io", st.ExposedIO)
	s.u64("msgs", uint64(st.Msgs))
	s.u64("cross_msgs", uint64(st.CrossMsgs))
	s.u64("cross_bytes", uint64(st.CrossBytes))
	for _, b := range st.Buckets {
		s.u64("bucket", uint64(b.Index))
		s.u64("bytes", uint64(b.Bytes))
		s.f64("start", b.Start)
		s.f64("end", b.End)
		s.f64("comm", b.Comm)
		s.f64("priced", b.Priced)
		s.f64("exposed", b.Exposed)
	}
}

// distTrain is one LoadShards + Step per op on the goroutine backend
// with pooled nodes, and a checkpoint written at the end of every batch
// (250 steps), so that every timed sample holds exactly one save.
type distTrain struct {
	e    *env
	ds   *dataset.Clusters
	d    *train.DistTrainer
	ckpt string
	loss float32
	t1   float64         // modeled step time at p = 1
	last train.StepStats // last step of the first batch (Buckets copied)
	log  *simLog
}

// steps runs n LoadShards+Step pairs on d and returns the losses and
// each step's stats with its bucket array copied out.
func steps(d *train.DistTrainer, ds dataset.Dataset, n int) ([]float32, []train.StepStats) {
	losses := make([]float32, n)
	stats := make([]train.StepStats, n)
	for i := range losses {
		d.LoadShards(ds, d.Iter())
		losses[i] = d.Step()
		stats[i] = d.LastStep
		stats[i].Buckets = append([]collective.BucketStat(nil), d.LastStep.Buckets...)
	}
	return losses, stats
}

func newDistTrain(e *env) (instance, error) {
	t := &distTrain{e: e, ds: scaleDataset(e.seed), log: newSimLog()}

	// p = 1 baseline of the same configuration, for scaling efficiency.
	one, err := train.NewDistTrainer(distConfig(1, ""), buildScaleNet)
	if err != nil {
		return nil, err
	}
	one.AttachInput(t.ds)
	_, oneStats := steps(one, t.ds, twinSteps)
	one.Close()
	t.t1 = oneStats[twinSteps-1].StepTime

	// The DES twin must agree with the goroutine backend bit for bit.
	twin, err := train.NewDistTrainer(distConfig(distNodes, train.BackendDES), buildScaleNet)
	if err != nil {
		return nil, err
	}
	twin.AttachInput(t.ds)
	twinLoss, twinStats := steps(twin, t.ds, twinSteps)
	twin.Close()

	id := e.tr.begin("train", "NewDistTrainer")
	t.d, err = train.NewDistTrainer(distConfig(distNodes, ""), buildScaleNet)
	e.tr.end(id)
	if err != nil {
		return nil, err
	}
	t.d.AttachInput(t.ds)
	id = e.tr.begin("train", "FirstSteps")
	loss, stats := steps(t.d, t.ds, twinSteps) // doubles as the warm-up
	e.tr.end(id)
	for i := range loss {
		if math.Float32bits(loss[i]) != math.Float32bits(twinLoss[i]) || !stats[i].Equal(twinStats[i]) {
			t.d.Close()
			return nil, fmt.Errorf("step %d: goroutine backend (loss %v, %+v) and DES twin (loss %v, %+v) disagree",
				i, loss[i], stats[i], twinLoss[i], twinStats[i])
		}
		logStep(t.log, loss[i], stats[i])
	}
	t.log.f64("t1", t.t1)
	t.ckpt = filepath.Join(e.outDir, fmt.Sprintf("ckpt-%d", os.Getpid()), "bench.ckpt")
	return t, nil
}

func (t *distTrain) run(i int) {
	tr := t.e.tr
	id := tr.begin("dataset", "LoadShards")
	t.d.LoadShards(t.ds, t.d.Iter())
	tr.end(id)
	id = tr.begin("train", "Step")
	t.loss = t.d.Step()
	tr.end(id)
	if (i+1)%t.e.batch == 0 {
		id = tr.begin("elastic", "CheckpointSave")
		if err := elastic.Save(t.ckpt, t.d.Checkpoint()); err != nil {
			panic(err)
		}
		tr.end(id)
	}
}

func (t *distTrain) check(i int) error {
	if i < t.e.batch {
		logStep(t.log, t.loss, t.d.LastStep)
		if i == t.e.batch-1 {
			t.last = t.d.LastStep
			t.last.Buckets = append([]collective.BucketStat(nil), t.d.LastStep.Buckets...)
		}
	}
	if !finite(t.loss) {
		return fmt.Errorf("loss %v", t.loss)
	}
	if (i+1)%t.e.batch == 0 {
		if d := t.d.ParamsDiverged(); d != 0 {
			return fmt.Errorf("replicas diverged by %g", d)
		}
	}
	return nil
}

func (t *distTrain) simPerOp() float64 { return t.last.StepTime * 1e6 }

func (t *distTrain) digest() string { return t.log.sum() }

// stepSimMetrics adds weight times the modeled decomposition of one
// step, so that a workload with several arms reports their mean.
func stepSimMetrics(m map[string]float64, st train.StepStats, t1, weight float64) {
	var worst float64
	for _, b := range st.Buckets {
		if b.Priced > 0 {
			worst = math.Max(worst, math.Abs(b.Comm-b.Priced)/b.Priced)
		}
	}
	for _, kv := range []struct {
		name string
		v    float64
	}{
		{"train.step_sim_us", st.StepTime * 1e6},
		{"train.compute_sim_us", st.Compute * 1e6},
		{"train.scaling_eff", t1 / st.StepTime},
		{"collective.comm_sim_us", st.Comm * 1e6},
		{"collective.exposed_sim_us", st.Exposed * 1e6},
		{"collective.buckets_per_step", float64(len(st.Buckets))},
		{"collective.msgs_per_step", float64(st.Msgs)},
		{"collective.cross_bytes_per_step", float64(st.CrossBytes)},
		{"collective.priced_vs_realized_max_rel", worst},
		{"pario.read_sim_us", st.IO * 1e6},
		{"pario.exposed_sim_us", st.ExposedIO * 1e6},
	} {
		m[kv.name] += weight * kv.v
	}
}

// selectPlanProbe times the 2-D plan selector on the workload's net,
// rebuilding its inputs the way the trainer does.
func selectPlanProbe(m map[string]float64, cfg train.DistConfig) {
	net, _, err := buildScaleNet()
	if err != nil {
		panic(err)
	}
	var params []collective.ParamInfo
	for li, l := range net.Layers() {
		for _, p := range l.Params() {
			if p.LRMult > 0 {
				params = append(params, collective.ParamInfo{Layer: li, Elems: p.Diff.Len()})
			}
		}
	}
	perLayer, total := net.Cost(perf.NewSWCG())
	done := make([]float64, len(perLayer))
	cum := total.Forward
	for i := len(perLayer) - 1; i >= 0; i-- {
		cum += perLayer[i].Backward
		done[i] = cum
	}
	m["collective.select_plan_host_us"] = timeN(20, func() {
		if _, err := collective.SelectPlan(cfg.Network, cfg.Mapping, cfg.Nodes, true,
			params, len(perLayer), done, total.Forward+total.Backward); err != nil {
			panic(err)
		}
	}) / 1e3
}

// simnetProbes times the goroutine interconnect alone: an empty run at
// two sizes, and a 4 KiB pair exchange.
func simnetProbes(m map[string]float64) {
	netw := topology.Sunway()
	for _, p := range []int{8, 32} {
		c := simnet.NewCluster(netw, topology.RoundRobinMapping{Q: netw.SupernodeSize}, p)
		m[fmt.Sprintf("simnet.run_empty_p%d_host_us", p)] = timeN(200, func() { c.Run(func(*simnet.Node) {}) }) / 1e3
	}
	pair := simnet.NewCluster(netw, topology.RoundRobinMapping{Q: netw.SupernodeSize}, 2)
	payload := [2][]float32{make([]float32, 1024), make([]float32, 1024)}
	const exchanges = 64
	empty := timeN(50, func() { pair.Run(func(*simnet.Node) {}) })
	full := timeN(50, func() {
		pair.Run(func(n *simnet.Node) {
			for k := 0; k < exchanges; k++ {
				n.SendRecv(1-n.Rank, payload[n.Rank])
			}
		})
	})
	m["simnet.sendrecv_host_us"] = (full - empty) / exchanges / 1e3
}

func (t *distTrain) probe(m map[string]float64) {
	tr := t.e.tr
	step := tr.durations("train", "Step")
	m["train.step_host_ms"] = quantile(step, 0.5) / 1e6
	m["train.step_host_p90_ms"] = quantile(step, 0.9) / 1e6
	m["train.new_trainer_host_ms"] = tr.medianNS("train", "NewDistTrainer") / 1e6
	m["train.first_step_host_ms"] = tr.medianNS("train", "FirstSteps") / twinSteps / 1e6
	m["dataset.load_shards_host_us"] = tr.medianNS("dataset", "LoadShards") / 1e3
	stepSimMetrics(m, t.last, t.t1, 1)
	if pick, _ := t.d.IOPlan(); pick != nil {
		m["pario.stripe_pick"] = float64(pick.StripeCount)
	}
	before := t.d.Launches()
	m["train.step_alloc_bytes"] = allocN(50, func() {
		t.d.LoadShards(t.ds, t.d.Iter())
		t.d.Step()
	})
	m["swnode.launches_per_step"] = float64(t.d.Launches()-before) / 50
	m["simnet.msgs_per_op"] = float64(t.d.LastStep.Msgs)

	// Checkpoint round trip.
	var st *elastic.State
	m["elastic.ckpt_save_host_ms"] = timeN(10, func() {
		if err := elastic.Save(t.ckpt, t.d.Checkpoint()); err != nil {
			panic(err)
		}
	}) / 1e6
	if fi, err := os.Stat(t.ckpt); err == nil {
		m["elastic.ckpt_bytes"] = float64(fi.Size())
	}
	m["elastic.ckpt_restore_host_ms"] = timeN(10, func() {
		var err error
		if st, err = elastic.Load(t.ckpt); err == nil {
			err = t.d.Restore(st)
		}
		if err != nil {
			panic(err)
		}
	}) / 1e6

	// Trainer lifecycle and the same step with the simulated-clock tracer on.
	cfg := distConfig(distNodes, "")
	var fresh *train.DistTrainer
	m["train.new_trainer_alloc_bytes"] = allocN(1, func() {
		var err error
		if fresh, err = train.NewDistTrainer(cfg, buildScaleNet); err != nil {
			panic(err)
		}
	})
	m["train.close_host_ms"] = timeN(1, fresh.Close) / 1e6
	cfg.Tracer = obs.New()
	traced, err := train.NewDistTrainer(cfg, buildScaleNet)
	if err != nil {
		panic(err)
	}
	steps(traced, t.ds, twinSteps)
	m["obs.traced_step_host_ms"] = timeN(50, func() {
		cfg.Tracer.Reset()
		traced.LoadShards(t.ds, traced.Iter())
		traced.Step()
	}) / 1e6
	m["obs.spans_per_step"] = float64(cfg.Tracer.Len())
	traced.Close()

	storage, readers, bytes := t.d.IOStorage()
	m["pario.select_stripe_host_us"] = timeN(200, func() {
		pario.SelectStripe(storage, readers, bytes, t.last.Compute)
	}) / 1e3
	selectPlanProbe(m, cfg)
	coreProbes(m)
	simnetProbes(m)
	m["swnode.launch_host_us"] = timeN(200, func() {
		t.d.Node(0).NewStream().LaunchFunc(0, func() float64 { return 0 }).Wait()
	}) / 1e3

	// The step's all-reduce alone, at the step's shape (latency regime):
	// one packed gradient over the same cluster, for each algorithm.
	allreduceProbe(m, cfg.Network, cfg.Mapping, distNodes, packedElems(), 20, nil)
	m["train.unattributed_host_pct"] = unattributedPct(m, distNodes, min(distNodes, runtime.GOMAXPROCS(0)), m["allreduce.rhd_host_ms"])
}

// packedElems is the length of the net's packed gradient vector.
func packedElems() int {
	net, _, err := buildScaleNet()
	if err != nil {
		panic(err)
	}
	return len(net.PackGradients(nil))
}

// unattributedPct is the share of a step's host time that p isolated
// core passes (forward+backward, update, pack) and the isolated
// all-reduce commMS do not explain: orchestration, launches, channels.
// The goroutine backend runs the passes on `cores` host threads at
// once; the DES backend runs everything on one.
func unattributedPct(m map[string]float64, p, cores int, commMS float64) float64 {
	perRank := (m["core.fwd_bwd_host_us"] + m["core.solver_update_host_us"] + m["core.pack_host_us"]) / 1e3
	explained := perRank*float64(p)/float64(cores) + commMS
	return 100 * (1 - explained/m["train.step_host_ms"])
}

func (t *distTrain) close() {
	t.d.Close()
	os.RemoveAll(filepath.Dir(t.ckpt))
}

// allreduceProbe runs rhd, ring and hier n times each over a simnet
// cluster with elems float32 per rank and adds the allreduce.* metrics.
// inputs may be nil (zeros are reduced).
func allreduceProbe(m map[string]float64, netw *topology.Network, mapping topology.Mapping, p, elems, n int, inputs [][]float32) {
	if inputs == nil {
		inputs = make([][]float32, p)
		for r := range inputs {
			inputs[r] = make([]float32, elems)
		}
	}
	c := simnet.NewCluster(netw, mapping, p)
	c.ReduceOnCPE = true
	var worst float64
	for _, name := range allreduceCycle {
		alg, err := allreduce.ByName(name)
		if err != nil {
			panic(err)
		}
		cost, err := allreduce.CostByName(name)
		if err != nil {
			panic(err)
		}
		var res simnet.Result
		call := func() { res, _ = c.RunGather(func(nd *simnet.Node) []float32 { return alg(nd, inputs[nd.Rank]) }) }
		call()
		m["allreduce."+name+"_host_ms"] = timeN(n, call) / 1e6
		m["allreduce."+name+"_alloc_bytes"] = allocN(n, call)
		m["allreduce."+name+"_sim_us"] = res.Time * 1e6
		m["allreduce."+name+"_cross_bytes"] = float64(res.CrossBytes)
		priced := cost(netw, p, float64(elems)*4, true).Total()
		worst = math.Max(worst, math.Abs(priced-res.Time)/res.Time)
	}
	m["allreduce.cost_model_max_rel_err"] = worst
}
