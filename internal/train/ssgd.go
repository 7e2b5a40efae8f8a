package train

import (
	"fmt"
	"runtime"
	"sync"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/collective"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/des"
	"swcaffe/internal/elastic"
	"swcaffe/internal/obs"
	"swcaffe/internal/pario"
	"swcaffe/internal/perf"
	"swcaffe/internal/simnet"
	"swcaffe/internal/sw26010"
	"swcaffe/internal/swdnn"
	"swcaffe/internal/swnode"
	"swcaffe/internal/tensor"
	"swcaffe/internal/topology"
)

// Worker is one simulated node of the data-parallel trainer: a rank
// with its input shard (Data, Labels) and a model replica, Net and
// Solver. All replicas start from identical parameters (the model
// builders seed deterministically) and stay identical because every
// update uses the same averaged gradient.
//
// On the goroutine backend every worker owns its replica. On the DES
// backend the replicas would be bit-equal copies of one another, so a
// cluster builds only as many models as the host can run passes on at
// once — k = min(GOMAXPROCS, p) — and rank r's Net and Solver alias
// model r mod k, its home, for the trainer's life (a Shrink keeps it):
// parameters, activations, gradients, momentum history. A worker owns
// only what differs between ranks: its shard tensors, which a pass
// copies into the home net's input blobs, and the layer state a replica
// advances on its own (core.ReplicaStateful), which a pass loads before
// and saves after. Between passes a model therefore holds the
// per-replica state of whichever of its ranks ran last; the
// parameters, being every rank's, are always current.
type Worker struct {
	Rank   int
	Net    *core.Net
	Solver *core.Solver
	Data   *tensor.Tensor
	Labels *tensor.Tensor

	// node/stream are the worker's simulated SW26010: every
	// forward/backward pass runs as a stream launch on it, charged with
	// the modeled compute cost.
	node   *swnode.Node
	stream *swnode.Stream

	// diffs caches the learnable-parameter gradient slices in pack
	// order — the view the collective engine packs from and drains the
	// reduced gradient into.
	diffs [][]float32

	// home is the shared model the rank's passes run on, and state the
	// rank's copy of that net's per-replica layer state (nil for a net
	// without such layers); both nil for a private replica.
	home  *Worker
	state core.ReplicaState

	// clock and failure are what the rank's last pass charged and
	// panicked with, which its launch hands back to the rank's node (see
	// launchPasses). clock is therefore the launch's own simulated
	// duration, the worker's per-step compute: reading it, rather than
	// differencing the cumulative node timeline, keeps the makespan
	// bit-identical to the priced cost at any iteration count. launch,
	// on the goroutine backend, is the rank's pass launch, bound once.
	clock   float64
	failure any
	launch  func() float64
}

// newReplica builds a worker around a model of its own; its input
// tensors are the net's input blobs.
func newReplica(solver core.SolverConfig, buildNet func() (*core.Net, map[string]*tensor.Tensor, error)) (*Worker, error) {
	net, inputs, err := buildNet()
	if err != nil {
		return nil, err
	}
	w := &Worker{Net: net, Solver: core.NewSolver(net, solver), Data: inputs["data"], Labels: inputs["label"]}
	for _, p := range net.LearnableParams() {
		w.diffs = append(w.diffs, p.Diff.Data)
	}
	return w, nil
}

// rankViews returns p workers whose homes are the shared models, rank
// r's model r mod k: each aliases its home's net, solver and gradient
// view, and owns copies of the net's input tensors and of its current
// per-replica layer state. The workers are one slice, and each input's
// copies one slice of tensors over one backing array.
func rankViews(models []*Worker, p int) []Worker {
	views := make([]Worker, p)
	data, labels := tensorSlab(models[0].Data, p), tensorSlab(models[0].Labels, p)
	for r := range views {
		home := models[r%len(models)]
		v := &views[r]
		*v = *home
		v.home = home
		v.Data, v.Labels = &data[r], &labels[r]
		v.Data.CopyFrom(home.Data)
		v.Labels.CopyFrom(home.Labels)
		v.state = home.Net.ReplicaState()
	}
	return views
}

// tensorSlab returns p zero tensors shaped like t, over one array.
func tensorSlab(t *tensor.Tensor, p int) []tensor.Tensor {
	n := t.Len()
	ts, buf := make([]tensor.Tensor, p), make([]float32, p*n)
	for i := range ts {
		ts[i] = tensor.Tensor{N: t.N, C: t.C, H: t.H, W: t.W, Data: buf[i*n : (i+1)*n : (i+1)*n]}
	}
	return ts
}

// DistConfig configures the functional SSGD trainer.
type DistConfig struct {
	Nodes    int
	SubBatch int // per-node mini-batch
	Solver   core.SolverConfig
	Network  *topology.Network
	Mapping  topology.Mapping

	// Overlap selects the bucketed layout: the packed gradients are cut
	// into per-layer buckets, and each bucket's all-reduce starts as
	// soon as backward has produced it, overlapping the remaining
	// backward compute instead of barriering after it (paper Sec. V-A).
	// Without it the step flushes one bucket, the whole packed vector,
	// after backward (collective.Config.Barrier). The collective engine
	// keeps every algorithm bit-identical between the two: element-
	// uniform algorithms (the default recursive halving/doubling, the
	// binomial tree) bucket freely, and the ring and the hierarchical
	// schedule get chunk-aligned buckets reduced with the full
	// schedule's per-chunk order (allreduce.Schedule.Run).
	Overlap bool
	// AlgorithmName selects a built-in collective by name (see
	// allreduce.ByName) together with its bucketing strategy and cost
	// model; empty selects recursive halving/doubling, and the
	// topology-hierarchical schedule is "hierarchical" ("hier"). The
	// special name "auto" (collective.NameAuto) hands the choice to
	// the engine's 2-D plan selector, which picks the (algorithm,
	// bucket cap) pair minimizing modeled exposed communication for
	// this topology and mapping.
	AlgorithmName string
	// BucketBytes caps one gradient bucket (default 4 MB).
	BucketBytes int
	// AutoBucket overrides BucketBytes with the α-β selector's choice:
	// the bucket cap minimizing the modeled exposed-communication
	// estimate for this (topology, p, layer histogram) — see
	// collective.SelectBucketBytes.
	AutoBucket bool

	// Backend selects the execution backend, and with it the node every
	// worker's passes run on. "" or BackendGoroutine (the default) is
	// the goroutine simulator pair: one goroutine per simnet rank, a
	// pooled swnode.Node per worker whose passes run as CoreGroup
	// launches, and a private model replica per rank — the functional
	// and concurrency oracle at small p. Its nodes own CPE worker
	// pools: call Close when done. BackendDES is the discrete-event
	// backend: collectives run as continuations on one FIFO ready queue
	// (internal/des), on the calling goroutine, and passes execute on
	// DES nodes (swnode.NewDESCluster) through k = min(GOMAXPROCS, p)
	// models shared by the ranks (see Worker) — one pass pool worker per
	// model, k − 1 of them goroutines that start with the trainer and
	// stop at Close, and none per rank. k nets are built, initialised,
	// updated and restored per cluster, not p of them, which is what
	// makes p = 1024/4096 sweeps
	// feasible; the result does not depend on k. Every commit checks
	// that the ranks reduced to the same gradient bits, and the models'
	// parameters are compared too (see ParamsDiverged); the DES backend
	// is bit-identical to the goroutine backend (losses, params,
	// per-replica layer state, StepStats, traffic census — the
	// race-enabled goldens pin it at p ≤ 128), whose private replicas
	// are the oracle that the sharing is sound. It rejects fault
	// injection — the goroutine backend stays the failure oracle.
	Backend string

	// Faults, when non-nil, is a deterministic fault-injection plan:
	// matching (rank, step, phase) checkpoints inside the passes and
	// the collective panic with elastic.Injected, killing the rank
	// through the production failure machinery: a failed pass poisons
	// its launch stream and Step joins every pass, a failed collective
	// joins every rank, and either re-raises the lowest failed rank's
	// panic. Nil costs nothing on the hot path.
	Faults *elastic.FaultPlan

	// Tracer, when non-nil, records the run on the simulated clock:
	// pass launches as per-rank CG spans (via swnode), bucket flushes
	// and hierarchical phases as collective spans (via the engine), and
	// elastic events as instants. Tracing observes the modeled times —
	// parameters and StepStats stay bit-identical to an untraced run,
	// and the nil default costs the hot paths nothing (the untraced
	// allocation budgets of alloc_test.go and the benchmark's
	// dist_train_p8 bytes-per-op gate hold it).
	Tracer *obs.Tracer

	// IO, when non-nil, adds the paper Sec. V-B input pipeline as a
	// third modeled stage of every Step, symmetric with exposed comm:
	// each iteration's shard read is priced through pario.Config.ReadTime
	// at the true contention point (p concurrent readers by default) and
	// double-buffered behind the previous step, so the exposed read per
	// step is max(0, read − hide window). Both backends charge the
	// identical analytic read time, keeping the DES <-> goroutine
	// hex-identity goldens valid with I/O enabled. Nil costs the hot
	// paths nothing (StepStats.IO/ExposedIO stay zero).
	IO *IOConfig
}

// IOConfig configures the modeled input-pipeline stage of DistConfig.
type IOConfig struct {
	// Storage is the striped disk-array model. A zero Arrays field
	// selects pario.DefaultTaihuLight (32 arrays at 2 GB/s, 256 MB
	// stripes) at Storage.StripeCount (or single-split when that is
	// also zero). NewDistTrainer rejects a resolved layout that
	// pario.Config.Validate rejects.
	Storage pario.Config
	// AutoStripe hands Storage.StripeCount to pario.SelectStripe — the
	// I/O analogue of AlgorithmName = "auto" — which sweeps power-of-two
	// layouts against the priced compute window and picks the stripe
	// count minimizing exposed read time (ties to the smaller count).
	AutoStripe bool
	// BatchBytes overrides the modeled bytes of one per-rank shard read
	// (0 = the actual input tensor bytes). The synthetic test tensors
	// are a few KB and always hide; the paper's ImageNet batches are
	// ~768 KB/image — this is how sweeps model real batch volumes
	// without materializing them.
	BatchBytes int64
}

// Backend names for DistConfig.Backend.
const (
	BackendGoroutine = "goroutine"
	BackendDES       = "des"
)

// DistTrainer drives Algorithm 1 across simulated nodes: every
// iteration each worker computes gradients on its own shard — as
// stream launches on the worker's own swnode.Node, so the cluster
// experiments execute functionally on N simulated SW26010s — the
// packed gradients are all-reduced over the simulated interconnect,
// averaged, and applied identically everywhere.
type DistTrainer struct {
	cfg     DistConfig
	Workers []*Worker
	nodes   *swnode.Cluster // pooled nodes, or DES nodes on BackendDES

	// Exactly one communicator exists, the selected backend's (see
	// newCommunicator): desCluster when cfg.Backend is BackendDES — Step
	// then flushes through the engine's DES path — and the goroutine
	// cluster otherwise.
	cluster    *simnet.Cluster
	desCluster *des.Cluster

	// CommTime accumulates simulated all-reduce time.
	CommTime float64
	// ComputeTime accumulates the modeled per-step compute makespan
	// (max over the workers' pass launches, each charged the priced
	// pass cost).
	ComputeTime float64
	// ExposedCommTime accumulates only the communication that was not
	// hidden behind backward compute on the modeled timeline (equals
	// CommTime for the barrier trainer).
	ExposedCommTime float64
	// IOTime / ExposedIOTime accumulate the modeled shard read time and
	// its non-overlapped remainder (zero unless cfg.IO is set).
	IOTime        float64
	ExposedIOTime float64
	// LastStep is the modeled decomposition of the most recent Step.
	LastStep StepStats
	iter     int

	// bucketScratch backs LastStep.Buckets, reused across Steps.
	bucketScratch []collective.BucketStat

	// traceTime is the cumulative modeled compute frontier: each step's
	// comm spans anchor at the step's pass start on the node timelines
	// (pass k begins at k·computeEnd via stream chaining), so advancing
	// by the step's compute keeps trace overlays aligned with the pass
	// spans. Maintained only when cfg.Tracer is set.
	traceTime float64

	// Modeled per-layer timeline (lazily priced on one SW26010 CG). The
	// same priced costs drive both views of compute: layerDone feeds
	// the engine's overlap overlay and auto-bucket selector, and each
	// node pass-launch is charged exactly computeEnd, so the node
	// timelines and the priced timeline agree bit for bit.
	layerDone  []float64 // layerDone[li]: modeled completion of layer li's backward
	computeEnd float64   // modeled forward + full backward time

	// engine owns bucket construction, flush signalling, the per-rank
	// packed staging and the makespan composition of both modes (lazily
	// built with the timeline).
	engine *collective.Engine
	// grads is the engine's drain target: the diffs of each distinct
	// model (see replicas) — every worker's, indexed by rank, or the k
	// sets the ranks share, rank j's output drained into model j.
	// Rebuilt with the engine (a Shrink re-ranks the workers).
	grads [][][]float32

	// models are the shared models of the DES backend (see Worker), the
	// homes of the rank views; nil where every rank has its own.
	// diverged is the worst mismatch any commit found between rank 0's
	// reduced gradient and another rank's — what ParamsDiverged adds to
	// comparing the models.
	models   []*Worker
	diverged float64

	// Reused per-Step staging (both modes must stay allocation-free at
	// steady state; the allocation budgets of alloc_test.go pin this).
	losses []float32

	// pool runs the DES backend's passes, shard loads and flush replays
	// (see passPool); on the goroutine backend its one worker is the
	// caller. failed is the passes' failure signal (see launchPasses).
	// passes, loads and handBack are what the pool and the DES pass
	// launches run, bound once so that handing them over allocates
	// nothing: handBack serves the launch of worker launching, and loads
	// the LoadShards call of shardDS and shardIter.
	pool          *passPool
	failed        chan struct{}
	passes, loads func(m int)
	handBack      func() float64
	launching     *Worker
	shardDS       dataset.Dataset
	shardIter     int

	// Resolved input-pipeline model (lazily built by ensureIO, nil/zero
	// unless cfg.IO is set): the storage layout with the advisor's
	// stripe pick applied, the priced per-step concurrent read, and the
	// advisor's candidate sweep kept for ExplainPlan. ioReady is
	// cleared by Shrink so the model re-resolves at the new world size.
	ioStorage  pario.Config
	ioReaders  int
	ioBytes    int64
	ioReadTime float64
	ioPlan     *pario.StripePlan
	ioCands    []pario.StripePlan
	ioReady    bool
}

// StepStats is the modeled time decomposition of one Step of the
// functional trainer: per-layer compute priced on one SW26010 core
// group composed with the simulated all-reduce makespans, the step's
// simnet traffic census, and the per-bucket attribution of where the
// communication time went.
type StepStats struct {
	Compute  float64 // forward + backward
	Comm     float64 // summed simulated all-reduce makespans
	Exposed  float64 // communication not hidden behind backward
	StepTime float64 // modeled iteration wall time

	// The input-pipeline stage (zero unless DistConfig.IO is set): IO
	// is the modeled concurrent shard read of this step's batch,
	// ExposedIO the part the modeled prefetch could not hide
	// behind the previous step (the whole read on the cold first step).
	IO        float64
	ExposedIO float64

	// Traffic census summed over the step's collectives (see
	// topology.Result): messages posted, the cross-supernode subset, and
	// the cross-supernode virtual wire bytes.
	Msgs, CrossMsgs, CrossBytes int64

	// Buckets is the per-flush attribution (one entry per gradient
	// bucket; the barrier's one bucket is the whole packed vector):
	// layout position, priced vs. realized cost, flush window, exposed
	// contribution, census. The backing array is reused across Steps —
	// copy before the next Step to keep it.
	Buckets []collective.BucketStat
}

// Equal reports whether two StepStats are bit-identical — every
// modeled time, census count and per-bucket attribution entry. This is
// the comparison the execution-path goldens pin (StepStats grew a
// slice field, so == no longer compiles).
func (s StepStats) Equal(o StepStats) bool {
	if s.Compute != o.Compute || s.Comm != o.Comm || s.Exposed != o.Exposed || s.StepTime != o.StepTime {
		return false
	}
	if s.IO != o.IO || s.ExposedIO != o.ExposedIO {
		return false
	}
	if s.Msgs != o.Msgs || s.CrossMsgs != o.CrossMsgs || s.CrossBytes != o.CrossBytes {
		return false
	}
	if len(s.Buckets) != len(o.Buckets) {
		return false
	}
	for i := range s.Buckets {
		if s.Buckets[i] != o.Buckets[i] {
			return false
		}
	}
	return true
}

// NewDistTrainer builds nodes workers from a model factory. The
// factory must be deterministic so replicas start identical.
func NewDistTrainer(cfg DistConfig, buildNet func() (*core.Net, map[string]*tensor.Tensor, error)) (*DistTrainer, error) {
	if cfg.Nodes <= 0 || cfg.SubBatch <= 0 {
		return nil, fmt.Errorf("train: bad dist config %+v", cfg)
	}
	if cfg.Network == nil {
		cfg.Network = topology.Sunway()
	}
	if q := cfg.Network.SupernodeSize; q < 1 {
		return nil, fmt.Errorf("train: Network.SupernodeSize = %d, want at least 1 node per supernode", q)
	}
	if cfg.Mapping == nil {
		cfg.Mapping = topology.RoundRobinMapping{Q: cfg.Network.SupernodeSize}
	}
	if err := topology.Validate(cfg.Mapping, cfg.Nodes, cfg.Network.SupernodeSize); err != nil {
		return nil, err
	}
	// The engine resolves the name again (with the matching bucketing
	// strategy); validate it here so misconfiguration is an error, not a
	// panic inside Step. "auto" is the engine's plan-selector directive,
	// not an algorithm name.
	if name := allreduce.Canonical(cfg.AlgorithmName); name != "" && name != collective.NameAuto {
		if _, err := allreduce.ByName(name); err != nil {
			return nil, err
		}
	}
	if io := cfg.IO; io != nil {
		s := io.storage()
		if io.AutoStripe {
			s.StripeCount = 1 // the advisor picks it from [1, Arrays]
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("train: IO storage: %w", err)
		}
	}
	switch cfg.Backend {
	case "", BackendGoroutine:
	case BackendDES:
		if cfg.Faults != nil {
			return nil, fmt.Errorf("train: backend %q does not support fault injection — the goroutine backend is the failure oracle", cfg.Backend)
		}
	default:
		return nil, fmt.Errorf("train: unknown backend %q (valid: %q, %q)", cfg.Backend, BackendGoroutine, BackendDES)
	}
	t := &DistTrainer{cfg: cfg, failed: make(chan struct{}, 1)}
	t.newCommunicator()
	if cfg.Backend == BackendDES {
		t.nodes = swnode.NewDESCluster(cfg.Nodes, nil)
	} else {
		t.nodes = swnode.NewCluster(cfg.Nodes, nil)
	}
	if cfg.Tracer != nil {
		t.nodes.SetTracer(cfg.Tracer)
	}
	t.passes, t.loads = t.homePasses, t.loadShards
	t.handBack = func() float64 { return t.launching.handBack() }
	var views []Worker
	if !t.shared() {
		t.pool = newPassPool(1)
	} else {
		// The k shared models are bit-equal replicas of the one factory,
		// built on the pool they will run on.
		t.pool = newPassPool(min(runtime.GOMAXPROCS(0), cfg.Nodes))
		t.models = make([]*Worker, t.pool.K)
		errs := make([]error, len(t.models))
		t.pool.Run(len(t.models), func(m int) {
			t.models[m], errs[m] = newReplica(cfg.Solver, buildNet)
		})
		for _, err := range errs {
			if err != nil {
				t.pool.close()
				return nil, err
			}
		}
		views = rankViews(t.models, cfg.Nodes)
	}
	t.Workers = make([]*Worker, cfg.Nodes)
	for r := range t.Workers {
		var w *Worker
		if t.shared() {
			w = &views[r]
		} else {
			var err error
			if w, err = newReplica(cfg.Solver, buildNet); err != nil {
				return nil, err
			}
			w.launch = func() float64 {
				t.runPass(w)
				return w.handBack()
			}
		}
		w.Rank = r
		// One pass at a time per worker: the node's 4-CG decomposition
		// is collapsed into one functional pass (Algorithm 1 lines 3-8).
		// The node's default stream is unpinned so the launch's
		// plan-priced weight drives the deterministic least-loaded
		// placement.
		w.node = t.nodes.Node(r)
		w.stream = w.node.Stream()
		w.stream.SetLabel("pass")
		t.Workers[r] = w
	}
	t.losses = make([]float32, cfg.Nodes)
	return t, nil
}

// Iter returns the number of completed iterations.
func (t *DistTrainer) Iter() int { return t.iter }

// shared reports whether the ranks share models (see Worker): on the
// DES backend.
func (t *DistTrainer) shared() bool { return t.cfg.Backend == BackendDES }

// replicas returns the workers that stand for the distinct models:
// every worker, or the shared models.
func (t *DistTrainer) replicas() []*Worker {
	if t.shared() {
		return t.models
	}
	return t.Workers
}

// replica returns rank's worker with its model replica ready to read:
// where the ranks share models, the home net is first given this
// rank's per-replica layer state, in place of that of whichever of its
// ranks ran last.
func (t *DistTrainer) replica(rank int) *Worker {
	w := t.Workers[rank]
	if w.home != nil {
		w.Net.LoadReplicaState(w.state)
	}
	return w
}

// pass is rank i's forward and backward over its shard, leaving the
// loss in t.losses[i] and the gradients in w.diffs; onLayer, when
// non-nil, follows each layer's backward (see core.Net.BackwardEach).
// Where the rank shares its home model the net first becomes this
// rank's replica — its shard in the input blobs, its per-replica layer
// state loaded — and the state is saved back afterwards; the gradients
// last only until the home's next rank's pass, so the caller packs them
// from onLayer or right after.
func (t *DistTrainer) pass(i int, w *Worker, onLayer func(li int)) {
	fp, step := t.cfg.Faults, t.iter
	if fp != nil {
		fp.Check(i, step, elastic.PhaseForward, -1)
	}
	if h := w.home; h != nil {
		h.Data.CopyFrom(w.Data)
		h.Labels.CopyFrom(w.Labels)
		w.Net.LoadReplicaState(w.state)
	}
	w.Net.ZeroParamDiffs()
	t.losses[i] = w.Net.Forward(core.Train)
	if fp != nil {
		fp.Check(i, step, elastic.PhaseBackward, -1)
	}
	w.Net.BackwardEach(core.Train, onLayer)
	if w.home != nil {
		w.Net.SaveReplicaState(w.state)
	}
}

// applyUpdate closes a Step: every model takes the SGD update from the
// averaged gradient the commits left in its diffs — identical on every
// replica (Algorithm 1 line 10), and applied once per shared model.
func (t *DistTrainer) applyUpdate() {
	for _, w := range t.replicas() {
		w.Solver.ApplyUpdate()
	}
	t.iter++
}

// Node returns worker rank's simulated node — pooled, or a DES node on
// BackendDES — for stats and stream access. Indexed through the
// worker, not the node cluster: after a Shrink the surviving re-ranked
// workers keep their original nodes, so rank i's node need not be
// cluster slot i.
func (t *DistTrainer) Node(rank int) *swnode.Node { return t.Workers[rank].node }

// newCommunicator builds the selected backend's communicator over the
// current world (t.cfg.Nodes ranks), replacing any previous one.
func (t *DistTrainer) newCommunicator() {
	if t.cfg.Backend == BackendDES {
		t.desCluster = des.NewCluster(t.cfg.Network, t.cfg.Mapping, t.cfg.Nodes)
		t.desCluster.ReduceOnCPE = true
		return
	}
	t.cluster = simnet.NewCluster(t.cfg.Network, t.cfg.Mapping, t.cfg.Nodes)
	t.cluster.ReduceOnCPE = true
}

// Close drains the workers' simulated nodes, stops their CPE worker
// pools and closes the engine, whose views, invalid from then on (and
// RankViews nil), serve the next trainer. The trainer must not be used
// after Close. Safe to defer on either backend, and to call twice.
func (t *DistTrainer) Close() {
	t.nodes.Close()
	t.pool.close()
	if t.engine != nil {
		t.engine.Close()
	}
}

// launchPasses starts every worker's pass (stepPass) as one stream
// launch on its simulated node, charged the seconds the pass returns. A
// pass that panics keeps its panic as the rank's failure and signals
// t.failed without blocking (cap 1, drained here). The caller blocks
// on signals a pass produces mid-flight (the step's flush loop), which
// a failed pass never sends, so it selects on t.failed as well and then
// joins every pass with Cluster.Sync, which re-raises the lowest failed
// rank's panic; a healthy pass never blocks on the caller, so the join
// always returns.
//
// There are two arms, one per backend. On a pooled node the pass runs
// on its launch goroutine, and the caller overlaps the flushes with it.
// On DES nodes every pass has run before launchPasses returns: first
// on the pool, one worker per shared model, each taking its home ranks
// in ascending order (homePasses) — the weights are read-only until the
// flush loop, which starts after the pool's join. Then, on the calling
// goroutine and in rank order, each rank's launch hands back its clock
// or re-raises its panic, so node placement, launch counts, trace spans
// and pass poisoning are those of a pass run inline.
func (t *DistTrainer) launchPasses() {
	// Recovery bookkeeping, a no-op on the healthy path: a failed launch
	// poisons its stream's future launches, so continue poisoned workers
	// on a fresh stream — a recovered trainer must not silently skip
	// their passes.
	for _, w := range t.Workers {
		if w.stream.Poisoned() {
			w.stream = w.node.NewStream()
			w.stream.SetLabel("pass")
		}
	}
	select {
	case <-t.failed:
	default:
	}
	// The launch weight is the swdnn-plan-priced pass cost, so the
	// deterministic least-loaded scheduler places passes by modeled
	// kernel cost rather than launch count (ensureTimeline has run by
	// the time Step launches).
	weight := t.computeEnd
	if t.shared() {
		t.pool.Run(len(t.models), t.passes)
		for _, w := range t.Workers {
			// A DES launch runs inline, so handBack reads this worker.
			t.launching = w
			w.stream.LaunchFunc(weight, t.handBack)
		}
		return
	}
	for _, w := range t.Workers {
		w.stream.LaunchFunc(weight, w.launch)
	}
}

// homePasses is pool worker m's share of a DES step's passes: those of
// the ranks whose home is shared model m, in rank order.
func (t *DistTrainer) homePasses(m int) {
	for _, w := range t.Workers {
		if w.home == t.models[m] {
			t.runPass(w)
		}
	}
}

// runPass runs w's pass of the step and keeps what it charged in
// w.clock, or its panic in w.failure, which it signals on t.failed.
func (t *DistTrainer) runPass(w *Worker) {
	defer func() {
		if w.failure = recover(); w.failure != nil {
			select {
			case t.failed <- struct{}{}:
			default:
			}
		}
	}()
	w.clock = t.stepPass(w.Rank, w)
}

// handBack is the fn of w's pass launch: it charges the node what the
// pass charged, or re-raises the pass's panic there.
func (w *Worker) handBack() float64 {
	if w.failure != nil {
		panic(w.failure)
	}
	return w.clock
}

// stepCompute closes out the compute leg of one Step: the maximum of
// the pass launches' own simulated durations across workers. Each
// launch is charged exactly the priced pass cost in one clock tick,
// so this equals computeEnd bit for bit at any iteration count —
// differencing the cumulative node timeline instead would shed
// floating-point bits as the timeline grows. Call after the passes'
// join.
func (t *DistTrainer) stepCompute() float64 {
	var max float64
	for _, w := range t.Workers {
		if w.clock > max {
			max = w.clock
		}
	}
	return max
}

// meanLoss is the Step's return value: the mean of the ranks' losses.
func (t *DistTrainer) meanLoss() float32 {
	var mean float32
	for _, l := range t.losses {
		mean += l
	}
	return mean / float32(len(t.losses))
}

// LoadShards fills every worker's input tensors with consecutive
// shards of the dataset starting at a deterministic per-iteration
// offset, so a serial trainer can consume the identical union batch.
// The goroutine backend fills the shards on the caller, the DES backend
// on the pass pool: each load is a pure function of its indices into a
// tensor of its own, so ds must allow concurrent Example calls there,
// as dataset.Clusters does (the pool's first loads from a table chunk
// race to fill it; a loser draws into its shard directly). The read's
// modeled time is priced separately, by the IO stage of Step (io.go).
func (t *DistTrainer) LoadShards(ds dataset.Dataset, iteration int) {
	t.shardDS, t.shardIter = ds, iteration
	t.pool.Run(t.pool.K, t.loads)
}

// loadShards is pool worker m's share of a LoadShards call: every K-th
// worker's shard from the m-th on.
func (t *DistTrainer) loadShards(m int) {
	for i := m; i < len(t.Workers); i += t.pool.K {
		w := t.Workers[i]
		sh := dataset.Shard{DS: t.shardDS, Rank: w.Rank, Ranks: t.cfg.Nodes, Batch: t.cfg.SubBatch}
		sh.Load(t.shardIter, w.Data, w.Labels)
	}
}

// ParamsDiverged reports how far the ranks' models have drifted apart
// — a consistency invariant (must stay 0) checked by the sweeps and the
// failure-injection tests: the larger of the maximum parameter
// difference between the distinct models now — private replicas, or
// the shared models — and the worst mismatch any commit so far found
// between rank 0's reduced gradient and another rank's.
func (t *DistTrainer) ParamsDiverged() float64 {
	worst := t.diverged
	replicas := t.replicas()
	base := replicas[0].Net.LearnableParams()
	for _, w := range replicas[1:] {
		other := w.Net.LearnableParams()
		for i, p := range base {
			if d := tensor.MaxDiff(p.Data, other[i].Data); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// passPool is a trainer's K workers: worker 0 is the goroutine calling
// Run, and workers 1 to K − 1 are goroutines started with the pool and
// stopped by close. Run(k, fn), for k up to K, calls fn(m) for every m
// in [0, k) and returns once all have; a panic in any is re-raised
// after the join, the lowest m's, so no call outlives Run. A Run
// allocates nothing: the workers are waiting for fn, and the embedded
// allreduce.Pool is bound once.
type passPool struct {
	allreduce.Pool
	work   []chan func(m int) // work[m] feeds worker m ≥ 1
	wg     sync.WaitGroup     // a Run's workers
	exited sync.WaitGroup     // the goroutines, for close
	panics []any
}

// newPassPool starts a pool of k workers.
func newPassPool(k int) *passPool {
	p := &passPool{work: make([]chan func(m int), k), panics: make([]any, k)}
	p.Pool = allreduce.Pool{K: k, Run: p.run}
	p.exited.Add(k - 1)
	for m := 1; m < k; m++ {
		p.work[m] = make(chan func(m int), 1)
		//swvet:ignore straygo: a pass pool worker, which close stops and waits for
		go func() {
			defer p.exited.Done()
			for fn := range p.work[m] {
				p.call(m, fn)
				p.wg.Done()
			}
		}()
	}
	return p
}

// run is the embedded Pool's Run.
func (p *passPool) run(k int, fn func(m int)) {
	p.wg.Add(k - 1)
	for m := 1; m < k; m++ {
		p.work[m] <- fn
	}
	p.call(0, fn)
	p.wg.Wait()
	for _, r := range p.panics[:k] {
		if r != nil {
			panic(r)
		}
	}
}

// call runs worker m's fn(m), keeping its panic.
func (p *passPool) call(m int, fn func(m int)) {
	defer func() { p.panics[m] = recover() }()
	fn(m)
}

// close stops the workers and returns once they have exited; a second
// close does nothing.
func (p *passPool) close() {
	for _, w := range p.work[1:] {
		close(w)
	}
	p.exited.Wait()
	p.work = p.work[:1]
}

// CGTrainer is the single-node, 4-core-group trainer of Algorithm 1
// and Fig. 5: four CG "threads" each forward/backward a quarter of the
// mini-batch; CG0 averages the four gradients; one SGD update applies.
//
// The passes execute on the four simulated sw26010 CoreGroups of one
// swnode.Node — each quarter-batch forward/backward runs as one kernel
// launch on a stream pinned to its CG, and the gradient summation runs
// as swdnn.SumRun mesh kernels on CG0's stream, event-chained behind
// the producing passes (the simple_sync handshake of Fig. 5). The
// numerics equal full-batch SGD when layers are batch-linear
// (everything except batch-norm statistics — the same approximation
// the real swCaffe makes), and are bit-identical to the host-math
// trainer this replaced (the test suite pins that).
type CGTrainer struct {
	CGs    []*Worker
	solver *core.Solver

	node    *swnode.Node
	streams []*swnode.Stream

	// passCost is the modeled forward+backward seconds of one
	// quarter-batch pass on one CG, charged to the launch's clock.
	passCost float64

	// The per-CG pass closures, bound once by NewCGTrainer, and the
	// losses they write.
	pass   [sw26010.CoreGroups]func() float64
	losses [sw26010.CoreGroups]float32

	// SimTime accumulates the modeled per-step makespan of the node
	// (the compute + intra-node summation time of Algorithm 1 lines
	// 3-8); lastEnd tracks the node timeline across steps.
	SimTime float64
	lastEnd float64

	// Input pipeline (AttachInput): the modeled prefetch reads the
	// four CGs' quarter shards of the next iteration while this one
	// trains. The read is priced once, at attach: inputRead is all
	// four quarters read by the node's one reader (0: not attached).
	// LastRead is the step's modeled read, LastExposedRead the part the
	// previous step's makespan could not hide (the whole read on the
	// cold first step). ReadTime/ExposedReadTime accumulate across
	// steps; SimTime stays compute-only so the two costs stay
	// separable.
	inputIter       int
	inputRead       float64
	lastSpan        float64
	LastRead        float64
	LastExposedRead float64
	ReadTime        float64
	ExposedReadTime float64
}

// NewCGTrainer builds the 4-CG trainer from a deterministic factory
// producing replicas with quarter-batch inputs.
func NewCGTrainer(build func() (*core.Net, map[string]*tensor.Tensor, error), solverCfg core.SolverConfig) (*CGTrainer, error) {
	t := &CGTrainer{node: swnode.NewNode(nil)}
	for i := 0; i < sw26010.CoreGroups; i++ {
		net, inputs, err := build()
		if err != nil {
			return nil, err
		}
		w := &Worker{Rank: i, Net: net, Data: inputs["data"], Labels: inputs["label"]}
		t.CGs = append(t.CGs, w)
		t.streams = append(t.streams, t.node.PinnedStream(i))
		t.pass[i] = func() float64 {
			w.Net.ZeroParamDiffs()
			t.losses[i] = w.Net.Forward(core.Train)
			w.Net.Backward(core.Train)
			return t.passCost
		}
	}
	t.solver = core.NewSolver(t.CGs[0].Net, solverCfg)
	_, total := t.CGs[0].Net.Cost(perf.NewSWCG())
	t.passCost = total.Forward + total.Backward
	return t, nil
}

// Node exposes the underlying simulated node (stats, stream access).
func (t *CGTrainer) Node() *swnode.Node { return t.node }

// AttachInput prices ds as the trainer's input pipeline: from the next
// Step on, each step books the modeled read of the four CGs' quarter
// shards, against storage at procs = 1 (one node reads alone; the
// cluster trainer's contention point is p). The caller still loads the
// quarter batches, CG i iteration it's at (it·4+i)·quarter, as
// dataset.Shard{Rank: i, Ranks: 4} indexes them.
func (t *CGTrainer) AttachInput(ds dataset.Dataset, storage pario.Config) {
	sh := dataset.Shard{DS: ds, Ranks: sw26010.CoreGroups, Batch: t.CGs[0].Data.N}
	t.inputIter = 0
	t.inputRead = storage.ReadTime(1, sw26010.CoreGroups*sh.Bytes())
}

// bookRead books the step's read cost (no-op without AttachInput).
// The window is the previous step's node makespan.
func (t *CGTrainer) bookRead() {
	if t.inputRead == 0 {
		return
	}
	read, exposed := t.inputRead, t.inputRead
	if t.inputIter > 0 {
		exposed = pario.ExposedTime(read, t.lastSpan)
	}
	t.inputIter++
	t.LastRead = read
	t.LastExposedRead = exposed
	t.ReadTime += read
	t.ExposedReadTime += exposed
}

// Close drains the node's launches. The trainer must not be used after
// Close.
func (t *CGTrainer) Close() {
	t.node.Close()
}

// Step runs one iteration: quarter-batch passes launched concurrently
// on the 4 simulated CGs, gradient summation onto CG0 as mesh kernels
// chained behind the passes, update on CG0, parameter broadcast back.
func (t *CGTrainer) Step() float32 {
	t.bookRead()
	var passes [sw26010.CoreGroups]*swnode.Event
	for i, pass := range t.pass {
		passes[i] = t.streams[i].LaunchFunc(1, pass)
	}

	// CG0 accumulates the three peer gradients on its own mesh: each
	// summation launch waits for the producing CG's pass via its event
	// and for CG0's prior work via stream order.
	base := t.CGs[0].Net.LearnableParams()
	for cgi := 1; cgi < sw26010.CoreGroups; cgi++ {
		other := t.CGs[cgi].Net.LearnableParams()
		for pi, p := range base {
			swdnn.SumAsync(t.streams[0], p.Diff.Data, other[pi].Diff.Data, passes[cgi])
		}
	}
	t.node.Sync()
	end := t.node.SimTime()
	t.lastSpan = end - t.lastEnd
	t.SimTime += t.lastSpan
	t.lastEnd = end

	// Average, update on CG0's MPE, broadcast parameters back (shared
	// memory on the real chip).
	for _, p := range base {
		p.Diff.Scale(1 / float32(len(t.CGs)))
	}
	t.solver.ApplyUpdate()
	for cgi := 1; cgi < sw26010.CoreGroups; cgi++ {
		other := t.CGs[cgi].Net.LearnableParams()
		for pi, p := range base {
			other[pi].Data.CopyFrom(p.Data)
		}
	}
	var mean float32
	for _, l := range t.losses {
		mean += l
	}
	return mean / float32(len(t.losses))
}
