package main

import (
	"fmt"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/dataset"
	"swcaffe/internal/des"
	"swcaffe/internal/topology"
	"swcaffe/internal/train"
)

const (
	sweepNodes      = 1024
	sweepSmokeNodes = 16
	sweepSteps      = 2
	sweepBucket     = 8 << 10
)

var sweepArms = [3]string{"barrier", "overlap", "hier"}

// sweepConfig is one arm of the functional-scaling point: barrier,
// bucketed overlap, and hierarchical overlap on the adjacent mapping
// of the stock q = 256 network (four supernodes at p = 1024). Only
// Backend selects the execution path.
func sweepConfig(arm, nodes int) train.DistConfig {
	cfg := train.DistConfig{Nodes: nodes, SubBatch: netSubBatch, Solver: scaleSolver,
		Backend: train.BackendDES, BucketBytes: sweepBucket}
	switch sweepArms[arm] {
	case "overlap":
		cfg.Overlap = true
	case "hier":
		cfg.Overlap = true
		cfg.AlgorithmName = allreduce.NameHierarchical
		cfg.Network = topology.Sunway()
		cfg.Mapping = topology.AdjacentMapping{Q: cfg.Network.SupernodeSize}
	}
	return cfg
}

// armResult is what one arm's trainer lifecycle produced.
type armResult struct {
	loss     float32
	stats    train.StepStats // last step, Buckets copied
	diverged float64
}

// sweepDES is one three-arm point per op on the DES backend: for each
// arm, NewDistTrainer -> 2 x (LoadShards, Step) -> ParamsDiverged ->
// Close.
type sweepDES struct {
	e     *env
	nodes int
	ds    *dataset.Clusters
	t1    [3]float64   // modeled step time at p = 1, per arm
	got   [3]armResult // the op just run
	first [3]armResult
	log   *simLog
}

// arm runs one arm's lifecycle at the given size. Spans go to tr.
func (s *sweepDES) arm(tr *tracer, arm, nodes int) armResult {
	id := tr.begin("train", "NewDistTrainer")
	d, err := train.NewDistTrainer(sweepConfig(arm, nodes), buildScaleNet)
	tr.end(id)
	if err != nil {
		panic(err)
	}
	var r armResult
	for it := 0; it < sweepSteps; it++ {
		id = tr.begin("dataset", "LoadShards")
		d.LoadShards(s.ds, it)
		tr.end(id)
		id = tr.begin("train", [sweepSteps]string{"FirstStep", "Step"}[it])
		r.loss = d.Step()
		tr.end(id)
	}
	r.stats = d.LastStep
	r.stats.Buckets = append(r.stats.Buckets[:0:0], d.LastStep.Buckets...)
	id = tr.begin("train", "ParamsDiverged")
	r.diverged = d.ParamsDiverged()
	tr.end(id)
	id = tr.begin("train", "Close")
	d.Close()
	tr.end(id)
	return r
}

func newSweepDES(e *env) (instance, error) {
	s := &sweepDES{e: e, nodes: sweepNodes, ds: scaleDataset(e.seed), log: newSimLog()}
	if e.smoke {
		s.nodes = sweepSmokeNodes
	}
	for a := range sweepArms {
		s.t1[a] = s.arm(nil, a, 1).stats.StepTime
		s.log.f64("t1", s.t1[a])
	}
	// Warm-up at a sixteenth of the size: a full point costs seconds
	// and builds every trainer afresh, so there is no cache it would
	// fill that this does not.
	for a := range sweepArms {
		s.arm(nil, a, max(s.nodes/16, 2))
	}
	return s, nil
}

func (s *sweepDES) run(int) {
	for a := range sweepArms {
		id := s.e.tr.begin("bench", sweepArms[a])
		s.got[a] = s.arm(s.e.tr, a, s.nodes)
		s.e.tr.end(id)
	}
}

func (s *sweepDES) check(i int) error {
	if i == 0 {
		s.first = s.got
	}
	for a, r := range s.got {
		if i < s.e.batch {
			logStep(s.log, r.loss, r.stats)
		}
		switch {
		case r.diverged != 0:
			return fmt.Errorf("%s: replicas diverged by %g", sweepArms[a], r.diverged)
		case !finite(r.loss):
			return fmt.Errorf("%s: loss %v", sweepArms[a], r.loss)
		case !r.stats.Equal(s.first[a].stats):
			return fmt.Errorf("%s: StepStats %+v differ from the first repetition's %+v", sweepArms[a], r.stats, s.first[a].stats)
		}
	}
	return nil
}

func (s *sweepDES) simPerOp() float64 {
	var sum float64
	for _, r := range s.first {
		sum += r.stats.StepTime
	}
	return sum / float64(len(s.first)) * 1e6
}

func (s *sweepDES) digest() string { return s.log.sum() }

// desProbes times the event engine alone at p ranks: an empty run, and
// a storm of 4 KiB ring shifts.
func desProbes(m map[string]float64, p int) {
	netw := topology.Sunway()
	c := des.NewCluster(netw, topology.RoundRobinMapping{Q: netw.SupernodeSize}, p)
	empty := func() { c.Run(func(r *des.Rank) { r.Finish(nil) }) }
	m["des.run_empty_host_us"] = timeN(10, empty) / 1e3
	const shifts = 16
	payload := make([]float32, 1024)
	storm := func() {
		c.Run(func(r *des.Rank) {
			var shift func(k int)
			shift = func(k int) {
				if k == shifts {
					r.Finish(nil)
					return
				}
				r.Send((r.Rank+1)%p, payload)
				r.Recv((r.Rank+p-1)%p, func([]float32) { shift(k + 1) })
			}
			shift(0)
		})
	}
	msgs := float64(p * shifts)
	ns := timeN(5, storm) - timeN(5, empty)
	m["des.sendrecv_host_ns"] = ns / msgs
	m["des.msgs_per_host_s"] = msgs / (ns / 1e9)
	m["des.alloc_bytes_per_msg"] = (allocN(3, storm) - allocN(3, empty)) / msgs
}

func (s *sweepDES) probe(m map[string]float64) {
	tr := s.e.tr
	for a, r := range s.first {
		stepSimMetrics(m, r.stats, s.t1[a], 1/float64(len(s.first)))
	}
	step := tr.durations("train", "Step")
	m["train.step_host_ms"] = quantile(step, 0.5) / 1e6
	m["train.step_host_p90_ms"] = quantile(step, 0.9) / 1e6
	m["train.first_step_host_ms"] = tr.medianNS("train", "FirstStep") / 1e6
	m["train.new_trainer_host_ms"] = tr.medianNS("train", "NewDistTrainer") / 1e6
	m["train.close_host_ms"] = tr.medianNS("train", "Close") / 1e6
	m["dataset.load_shards_host_us"] = tr.medianNS("dataset", "LoadShards") / 1e3

	cfg := sweepConfig(1, s.nodes)
	var d *train.DistTrainer
	m["train.new_trainer_alloc_bytes"] = allocN(1, func() {
		var err error
		if d, err = train.NewDistTrainer(cfg, buildScaleNet); err != nil {
			panic(err)
		}
	})
	d.LoadShards(s.ds, 0)
	d.Step()
	before := d.Launches()
	m["train.step_alloc_bytes"] = allocN(1, func() {
		d.LoadShards(s.ds, 1)
		d.Step()
	})
	m["swnode.launches_per_step"] = float64(d.Launches() - before)
	d.Close()

	cfg.Network = topology.Sunway()
	cfg.Mapping = topology.RoundRobinMapping{Q: cfg.Network.SupernodeSize}
	selectPlanProbe(m, cfg)
	coreProbes(m)
	desProbes(m, s.nodes)
	// The DES collectives are reached only through the trainer, so the
	// step's communication is attributed as its message count at the
	// engine's isolated per-message cost.
	commMS := m["collective.msgs_per_step"] * m["des.sendrecv_host_ns"] / 1e6
	m["train.unattributed_host_pct"] = unattributedPct(m, s.nodes, 1, commMS)
}

func (s *sweepDES) close() {}
