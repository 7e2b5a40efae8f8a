package collective

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/f32"
	"swcaffe/internal/obs"
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// CommLane is the trace thread id (within a rank's process track) that
// carries communication-phase spans — distinct from tids 0..3, which
// are the rank's CoreGroup lanes.
const CommLane = 8

// DefaultBucketBytes is the fixed bucket cap used when neither an
// explicit cap nor auto-selection is configured: large enough to
// amortize per-collective latency, small enough that several buckets
// are in flight across a deep net's backward.
const DefaultBucketBytes = 4 << 20

// NameAuto is the Config.AlgorithmName directive that hands the
// algorithm choice itself to the plan selector: the engine runs
// SelectPlan over (AutoAlgorithms × bucket caps) and installs the
// winning strategy and cap.
const NameAuto = "auto"

// AutoAlgorithms is the candidate list SelectPlan sweeps, in
// tie-break order: an exact tie on the exposed-communication estimate
// goes to the earlier entry. Flat RHD leads so the degenerate shapes
// (p ≤ q, where the hierarchical schedule collapses to a ring-latency
// flat all-reduce and can at best tie) fall back to the flat
// algorithm, exactly as the paper's baseline would behave.
var AutoAlgorithms = []string{
	allreduce.NameRHD,
	allreduce.NameHierarchical,
	allreduce.NameRing,
	allreduce.NameBinomial,
}

// ParamInfo describes one learnable parameter of the packed gradient
// vector: the forward index of the layer that produces its gradient
// and its element count. Parameters appear in pack (layer) order.
type ParamInfo struct {
	Layer int
	Elems int
}

// Bucket is one flush unit: the [Lo, Hi) element range of the packed
// gradient vector, ready the moment ReadyLayer's backward completes
// (backward produces the packed vector tail-first, so buckets are
// contiguous suffix-extending ranges and flush in slice order).
//
// A bucket is reduced where it lies in each rank's view, and a schedule
// that pads (flat RHD, fewer than Ranks elements) spills past Hi. What
// lies there is dead: the buckets flushed earlier in the step, each
// committed — drained into the gradients — before the next one flushes,
// and then the slack every view carries past the packed vector. Produce
// only ever writes below the Lo of the bucket in flight.
type Bucket struct {
	Lo, Hi     int
	ReadyLayer int
}

// Elems returns the bucket's element count.
func (b Bucket) Elems() int { return b.Hi - b.Lo }

// Config parameterizes an Engine.
type Config struct {
	Params []ParamInfo // learnable parameters in pack order
	Layers int         // forward layer count (ReadyLayer domain)
	Ranks  int         // collective participants (= worker replicas)

	// Network prices the plan; the all-reduce's sum is priced on the
	// CPE clusters, where the executing cluster reduces.
	Network *topology.Network
	// Mapping is the rank-to-supernode mapping of the executing
	// cluster (nil = the trainer default round-robin at TaihuLight q).
	// The hierarchical strategy's chunk partition and the selector's
	// flat-RHD pricing both depend on it, so it must match the simnet
	// cluster the flushes run on.
	Mapping topology.Mapping

	// LayerDone[l] is the modeled completion time of layer l's
	// backward; ComputeEnd the full forward+backward time. They drive
	// both the auto-bucket selector and Compose's overlap overlay.
	LayerDone  []float64
	ComputeEnd float64

	// AlgorithmName selects a built-in strategy (see StrategyFor; ring
	// and hierarchical get chunk-aligned bucketing). Empty name = RHD;
	// NameAuto lets SelectPlan choose the algorithm — not just the
	// bucket cap — from the α-β cost models.
	AlgorithmName string

	// BucketBytes caps one bucket (<=0 selects DefaultBucketBytes);
	// AutoBucket overrides it with the α-β selector's choice (see
	// SelectBucketBytes and the formula at allreduce.CostByName).
	BucketBytes int
	AutoBucket  bool

	// Barrier lays the packed vector out as one bucket, [0, total), even
	// when total is 0: the barrier trainer's single flush, ready when
	// layer 0's backward — the last to run — completes. Compose starts it
	// at the compute barrier and exposes it in full. Selection still
	// runs, and picks the strategy; only the layout ignores its cap.
	Barrier bool

	// FlushHook, when non-nil, runs on each rank's goroutine at the
	// top of every bucket reduce (ReduceSeg and FlushSegDES, with the
	// bucket index; the barrier's single flush is bucket 0). It is the
	// fault-injection seam: a hook that panics dies inside the simnet
	// run, exercising the production collective-failure path. The hook
	// must be safe for concurrent calls from rank goroutines.
	FlushHook func(rank, bucket int)
}

// Engine owns gradient bucket construction, the per-step flush
// protocol and the modeled-makespan composition for one (net,
// algorithm, cluster) trio. One Engine serves all ranks of a trainer:
// per-rank state is indexed by rank, and the flush signalling is the
// atomic-counter + capacity-1-channel handshake the overlapped
// trainer pins with its race-enabled goldens.
type Engine struct {
	cfg   Config
	strat Strategy
	plan  *Plan // non-nil when AlgorithmName was NameAuto

	total int   // packed vector length, elements
	offs  []int // global offset of each param

	layerParams [][]int // per forward layer: param indices in pack order

	buckets     []Bucket
	bucketBytes int // the effective cap (selected when auto; the whole vector under Barrier)

	// Reused per-step staging. views holds each rank's packed gradient,
	// which the flushes reduce in place (see Bucket): input and output
	// are the same memory. Close boxes each as &views[r] for viewPool.
	views   [][]float32
	cursors []int           // per-rank next-bucket index, reset per step
	ready   []chan struct{} // cap-1 flush signal per bucket
	counts  []int32         // per-bucket arrival counts, reset per step

	commTimes []float64 // per-bucket collective makespans

	// Attribution: the selector's priced cost per bucket (fixed at
	// New) and the realized per-bucket stats of the last committed
	// step, filled by Commit and finalized by Compose. candidates is the
	// full per-algorithm sweep behind an auto plan, kept for
	// explain-plan reports.
	prices     []float64
	stats      []BucketStat
	candidates []Plan

	bytesMetric *obs.Counter // comm.bytes.<algorithm>, cached to keep Commit allocation-free

	desRun *allreduce.DESRun // the DES flushes' call state and payload log (see FlushSegDES)
	worst  []float64         // Commit's per-worker mismatches
	// compared is the outputs diverged compares, and compareRun its
	// compare, bound once so handing it to the pool allocates nothing.
	compared   [][]float32
	compareRun func(m int)

	// Tracing (nil tracer = disabled, the hot-path default). traceBase
	// anchors this step's flush windows on the cumulative trace
	// timeline; traced with the hierarchical strategy, hierClks and
	// clockSnaps hold the schedule's phase-entry and finishing clocks per
	// rank per flush (nil otherwise: a flush then records nothing).
	tracer     *obs.Tracer
	tracePid   int
	traceBase  float64
	hierClks   []allreduce.PhaseClocks // [bucket*Ranks + rank], filled by the flushes
	clockSnaps [][]float64             // [bucket][rank] finishing clocks at Commit
}

// BucketStat is the per-bucket attribution of one committed step: the
// bucket's layout position and algorithm, when it became ready
// (producer backward done), the modeled flush window Compose chained
// it into, the selector's priced α-β cost next to the realized
// collective makespan, this bucket's contribution to the step's
// exposed communication, and the simnet traffic census of its
// collective.
type BucketStat struct {
	Index     int
	Lo, Hi    int
	Bytes     int
	Algorithm string

	ReadyAt    float64 // producer layer's backward completion
	Start, End float64 // modeled flush window within the step
	Comm       float64 // realized collective makespan
	Priced     float64 // selector's cost-model estimate for this bucket
	Exposed    float64 // contribution to the step's exposed comm

	Msgs, CrossMsgs, CrossBytes int64
}

// New builds an engine. The configuration must be complete: parameter
// layout, topology, priced timeline and algorithm selection.
func New(cfg Config) (*Engine, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("collective: need at least one rank, got %d", cfg.Ranks)
	}
	// An empty parameter set is legal (a fully frozen net): the engine
	// degenerates to zero buckets, or under Barrier to one empty flush,
	// matching the pre-engine trainer's behavior.
	if cfg.Network == nil {
		return nil, fmt.Errorf("collective: nil network")
	}
	if len(cfg.LayerDone) != cfg.Layers {
		return nil, fmt.Errorf("collective: %d layer times for %d layers", len(cfg.LayerDone), cfg.Layers)
	}
	if cfg.Mapping == nil {
		cfg.Mapping = topology.RoundRobinMapping{Q: cfg.Network.SupernodeSize}
	}
	e := &Engine{cfg: cfg}
	e.offs = make([]int, len(cfg.Params))
	for i, p := range cfg.Params {
		if p.Elems <= 0 || p.Layer < 0 || p.Layer >= cfg.Layers {
			return nil, fmt.Errorf("collective: bad param %d: %+v", i, p)
		}
		e.offs[i] = e.total
		e.total += p.Elems
	}
	e.layerParams = make([][]int, cfg.Layers)
	for i, p := range cfg.Params {
		e.layerParams[p.Layer] = append(e.layerParams[p.Layer], i)
	}

	if allreduce.Canonical(cfg.AlgorithmName) == NameAuto {
		// 2-D selection: the plan picks the (algorithm, bucket cap)
		// pair minimizing the modeled exposed communication. The full
		// per-algorithm sweep is kept so the decision stays auditable
		// (Candidates, swtrain -explain-plan).
		cands, err := PlanCandidates(cfg.Network, cfg.Mapping, cfg.Ranks, true,
			cfg.Params, cfg.Layers, cfg.LayerDone, cfg.ComputeEnd)
		if err != nil {
			return nil, err
		}
		e.candidates = cands
		plan := bestPlan(cands)
		e.plan = &plan
		e.strat, err = StrategyFor(plan.Algorithm, cfg.Mapping, cfg.Ranks)
		if err != nil {
			return nil, err
		}
		e.bucketBytes = plan.BucketBytes
	} else {
		strat, err := StrategyFor(cfg.AlgorithmName, cfg.Mapping, cfg.Ranks)
		if err != nil {
			return nil, err
		}
		e.strat = strat
		e.bucketBytes = cfg.BucketBytes
		if cfg.AutoBucket {
			e.bucketBytes, _ = SelectBucketBytes(strat, cfg.Network, cfg.Ranks, true,
				cfg.Params, cfg.Layers, cfg.LayerDone, cfg.ComputeEnd)
		} else if e.bucketBytes <= 0 {
			e.bucketBytes = DefaultBucketBytes
		}
	}
	if cfg.Barrier {
		e.buckets = []Bucket{{Lo: 0, Hi: e.total, ReadyLayer: 0}}
		e.bucketBytes = e.total * 4
	} else {
		e.buckets = layoutBuckets(e.strat, cfg.Params, e.offs, e.total, e.bucketBytes, cfg.Layers)
	}

	// An empty vector is priced at nothing: a frozen net's barrier flush.
	e.prices = make([]float64, len(e.buckets))
	for b, bk := range e.buckets {
		if bk.Elems() > 0 {
			e.prices[b] = e.strat.Cost(cfg.Network, cfg.Ranks, bk.Lo, bk.Hi, e.total, true).Total()
		}
	}
	e.stats = make([]BucketStat, len(e.buckets))
	e.bytesMetric = obs.Default().Counter("comm.bytes." + e.strat.Name())

	nb, nw := len(e.buckets), cfg.Ranks
	e.ready = make([]chan struct{}, nb)
	for b := range e.ready {
		// Capacity-1 signal channel: the last-arriving rank sends one
		// token, the flush loop consumes it, and the empty channel is
		// ready for the next step — no per-step close/remake.
		e.ready[b] = make(chan struct{}, 1)
	}
	e.counts = make([]int32, nb)
	e.cursors = make([]int, nw)
	e.commTimes = make([]float64, nb)
	// Every rank's packed view has slack past the packed vector that a
	// padding schedule spills into when it reduces the tail bucket or
	// the whole vector: flat RHD pads to a multiple of its power-of-two
	// core, so by fewer than Ranks elements. Each view is an allocation
	// of its own, on purpose: one array for all of them would save p
	// objects, but measured on the benchmark's p = 1024 sweep it raised
	// the peak RSS from about 274 MB to 408 MB (the per-rank views read
	// 271–284 MB) — one live array the size of every view together.
	// The views a closed engine hands back serve the next one, as they
	// are: Produce writes every element of the packed vector before a
	// flush reads it, and a cursor's load zeroes the pad it spills into.
	e.views = make([][]float32, e.cfg.Ranks)
	for r := range e.views {
		b, _ := viewPool.Get().(*[]float32)
		if b == nil || cap(*b) < e.total+e.cfg.Ranks {
			b = &e.views[r]
			*b = make([]float32, e.total+e.cfg.Ranks)
		}
		if takeViewHook != nil {
			takeViewHook((*b)[:cap(*b)])
		}
		e.views[r] = (*b)[:e.total]
	}
	return e, nil
}

// What closed engines leave for the next (Close): view boxes and DES run
// state. A sync.Pool, unlike a free list, lets the GC take what no
// engine takes back within two collections. The hooks are the tests'
// seams (export_test.go): New hands them each view's whole array, and
// FlushSegDES runs on the DES run state they return for (p, n).
var (
	viewPool, desRunPool sync.Pool
	takeViewHook         func([]float32)
	takeRunHook          func(run *allreduce.DESRun, p, n int) *allreduce.DESRun
)

// Close hands the per-rank views and the DES run state to the next
// engine New builds. The views, and every output a flush returned, are
// invalid after Close, and RankViews returns nil; a second Close hands
// out nothing. Call it once no flush runs.
func (e *Engine) Close() {
	for r := range e.views {
		viewPool.Put(&e.views[r])
	}
	if e.desRun != nil {
		desRunPool.Put(e.desRun)
	}
	e.views, e.desRun = nil, nil
}

// Buckets returns the flush units in flush order (descending offsets:
// backward produces the packed tail first).
func (e *Engine) Buckets() []Bucket { return e.buckets }

// BucketBytes reports the effective bucket cap — the configured or
// auto-selected size, or under Config.Barrier the one bucket's bytes.
func (e *Engine) BucketBytes() int { return e.bucketBytes }

// Auto reports whether the cap was chosen by the α-β selector —
// either Config.AutoBucket or the full 2-D plan selection.
func (e *Engine) Auto() bool { return e.cfg.AutoBucket || e.plan != nil }

// Plan returns the 2-D selector's decision, or nil when the algorithm
// was fixed by configuration rather than chosen by SelectPlan.
func (e *Engine) Plan() *Plan { return e.plan }

// Candidates returns the selector's full per-algorithm sweep behind an
// auto plan — one best-cap entry per AutoAlgorithms candidate, in
// sweep order — or nil when the algorithm was fixed by configuration.
// This is the audit trail swtrain -explain-plan prints.
func (e *Engine) Candidates() []Plan { return e.candidates }

// StrategyName names the active bucketing strategy.
func (e *Engine) StrategyName() string { return e.strat.Name() }

// TotalElems returns the packed gradient vector length.
func (e *Engine) TotalElems() int { return e.total }

// BeginStep resets the per-step flush state: arrival counts, rank
// cursors, and any ready token left by a step that panicked between a
// bucket's completion and its consumption (a stale token would let
// the next step's flush loop read a bucket mid-copy).
func (e *Engine) BeginStep() {
	for b := range e.counts {
		e.counts[b] = 0
		select {
		case <-e.ready[b]:
		default:
		}
	}
	for r := range e.cursors {
		e.cursors[r] = 0
	}
}

// Produce records that rank's backward just completed forward-layer
// li: the layer's parameter gradients are copied into the rank's
// packed buffer, and every bucket the production frontier now covers
// is counted — the last-arriving rank signals the flush loop. Safe to
// call concurrently across ranks (each rank touches only its own
// buffer and cursor; counts are atomic).
func (e *Engine) Produce(rank, li int, diffs [][]float32) {
	pack := e.views[rank]
	for _, pi := range e.layerParams[li] {
		copy(pack[e.offs[pi]:], diffs[pi])
	}
	cur := e.cursors[rank]
	for cur < len(e.buckets) && e.buckets[cur].ReadyLayer == li {
		if atomic.AddInt32(&e.counts[cur], 1) == int32(e.cfg.Ranks) {
			e.ready[cur] <- struct{}{}
		}
		cur++
	}
	e.cursors[rank] = cur
}

// Ready returns bucket b's flush signal: one token arrives when every
// rank has produced the bucket.
func (e *Engine) Ready(b int) <-chan struct{} { return e.ready[b] }

// RankViews returns the per-rank packed-gradient buffers, which a
// flush reduces in place; nil after Close, which hands them on.
func (e *Engine) RankViews() [][]float32 { return e.views }

// ReduceSeg runs the strategy's collective over bucket b on one
// simnet rank, in the rank's packed buffer — reached through the
// caller's captured view (see RankViews) — and charges the final
// averaging sweep. It returns the reduced bucket: that range of pack.
func (e *Engine) ReduceSeg(n *simnet.Node, b int, pack []float32) []float32 {
	if e.cfg.FlushHook != nil {
		e.cfg.FlushHook(n.Rank, b)
	}
	bk := e.buckets[b]
	out := e.strat.Run(n, pack[bk.Lo:bk.Hi], bk.Lo, e.total, e.phaseClocks(b, n.Rank))
	n.ChargeReduce(len(out))
	return out
}

// phaseClocks is rank's own slot for its phase-entry clocks of bucket
// b's flush, or nil when the engine traces no hierarchical schedule.
func (e *Engine) phaseClocks(b, rank int) *allreduce.PhaseClocks {
	if e.hierClks == nil {
		return nil
	}
	return &e.hierClks[b*e.cfg.Ranks+rank]
}

// Commit drains bucket b's per-rank reduced outputs — averaged
// (1/Ranks) straight into the parameter gradients, in pack order — and
// records the bucket's simulated makespan and traffic census. grads
// holds one gradient set per model replica, and grads[r] receives rank
// r's output. A trainer whose ranks share models passes one set per
// model: ranks 0 to len(grads)-1 are drained into them. Every rank's
// output but rank 0's is also compared to rank 0's bit for bit — the
// invariant the sharing rests on, which comparing the models'
// parameters afterwards could miss (an ulp of gradient can vanish in
// the update), checked by a read-only sweep split among pool's workers.
// Commit returns the worst mismatch that sweep found (see mismatch): 0,
// always, unless a collective is broken.
//
// outs[r] is what rank r's flush returned: bucket b's range of the
// rank's view, reduced where it lay. The engine keeps no reference to
// it: the drain is the result's whole lifetime, and what makes the
// range dead — free for a later bucket's pad to spill into (see
// Bucket). So commit a bucket before flushing the next. On the
// overlap path Commit runs on the flush loop while the rest of backward
// still computes; it writes only parameters of layers the bucket's
// readiness already covers, which no later backward layer touches. Call
// only on the clean path: a failed run leaves its bucket half reduced.
func (e *Engine) Commit(b int, outs [][]float32, res topology.Result, grads [][][]float32, pool allreduce.Pool) float64 {
	bk := e.buckets[b]
	e.drain(outs, bk.Lo, bk.Hi, grads)
	diverged := e.diverged(outs, pool)
	e.commTimes[b] = res.Time
	st := &e.stats[b]
	st.Index, st.Lo, st.Hi = b, bk.Lo, bk.Hi
	st.Bytes = bk.Elems() * 4
	st.Algorithm = e.strat.Name()
	st.Comm = res.Time
	st.Priced = e.prices[b]
	st.Msgs, st.CrossMsgs, st.CrossBytes = res.Msgs, res.CrossMsgs, res.CrossBytes
	e.bytesMetric.Add(int64(st.Bytes))
	if e.hierClks != nil {
		e.clockSnaps[b] = append(e.clockSnaps[b][:0], res.Clocks...)
	}
	return diverged
}

// drain writes the average of the reduced [lo, hi) range — outs[rank]
// holds the sum over ranks — into the parameter gradients it overlaps,
// one multiply-and-store sweep per gradient set (the sum itself is left
// as it was). Buckets cut at element granularity, so a parameter may
// span several buckets.
func (e *Engine) drain(outs [][]float32, lo, hi int, grads [][][]float32) {
	inv := float32(1) / float32(e.cfg.Ranks)
	// First param whose end lies beyond lo.
	first := sort.Search(len(e.offs), func(i int) bool {
		return e.offs[i]+e.cfg.Params[i].Elems > lo
	})
	for r, grad := range grads {
		vec := outs[r]
		for i := first; i < len(e.offs) && e.offs[i] < hi; i++ {
			off := e.offs[i]
			a, b := max(off, lo), min(off+e.cfg.Params[i].Elems, hi)
			f32.Scale(grad[i][a-off:b-off], vec[a-lo:b-lo], inv)
		}
	}
}

// diverged is the worst mismatch between rank 0's output and any other
// rank's. Each of pool's workers compares a run of ranks; the worst of
// the runs' worsts is the same whatever the split.
func (e *Engine) diverged(outs [][]float32, pool allreduce.Pool) float64 {
	k := 1
	if pool.Run != nil {
		k = max(1, min(pool.K, len(outs)-1))
	}
	// Grown and cleared, not appended from a make: the race detector's
	// build allocates for the make.
	e.worst = slices.Grow(e.worst[:0], k)[:k]
	clear(e.worst)
	e.compared = outs
	if k == 1 {
		e.compare(0)
	} else {
		if e.compareRun == nil {
			e.compareRun = e.compare
		}
		pool.Run(k, e.compareRun)
	}
	e.compared = nil
	return slices.Max(e.worst)
}

// compare is worker m's run of diverged's k = len(worst): the worst
// mismatch of its ranks, into worst[m].
func (e *Engine) compare(m int) {
	outs, k := e.compared, len(e.worst)
	others := len(outs) - 1
	for _, vec := range outs[1+m*others/k : 1+(m+1)*others/k] {
		e.worst[m] = max(e.worst[m], mismatch(outs[0], vec))
	}
}

// mismatch is the largest |a[i] - b[i]| over the elements whose bits
// differ, so it is 0 exactly when the two vectors are bit-identical: a
// difference of bits that is none of value (signed zeros, NaN payloads)
// counts as +Inf. The views are bit-equal in every passing run, so a
// byte compare answers first and the scan runs only when it fails.
func mismatch(a, b []float32) float64 {
	if f32.BitsEqual(a, b) {
		return 0
	}
	var worst float64
	for i, v := range a {
		if w := b[i]; math.Float32bits(v) != math.Float32bits(w) {
			d := math.Abs(float64(v) - float64(w))
			if !(d > 0) {
				d = math.Inf(1)
			}
			worst = max(worst, d)
		}
	}
	return worst
}

// Compose chains the committed bucket collectives behind their
// modeled production times (LayerDone[ReadyLayer] is where every
// node's clock stood when the bucket was flushed) and returns the
// summed communication, the exposed part of it and the modeled step
// time given the measured compute makespan. Exposed communication is
// stepTime - compute. Under Config.Barrier the one bucket is ready at
// compute itself, the barrier, and the flush is exposed in full: the
// exposed time is its makespan, not (compute + comm) - compute, which
// need not equal it bit for bit.
//
// As a side effect Compose finalizes the per-bucket attribution of
// LastBuckets — each bucket's flush window [Start, End] and its
// exposed contribution max(0, End_b - max(compute, End_{b-1})), which
// telescopes to the step's total exposed time since bucket ends are
// monotone — and, when a tracer is attached, emits the step's flush
// and hierarchical-phase spans. Attribution observes the same
// arithmetic the return values use; it never changes it.
func (e *Engine) Compose(compute float64) (commSum, exposed, stepTime float64) {
	var commEnd float64
	for b, bk := range e.buckets {
		st := &e.stats[b]
		st.ReadyAt = compute
		if !e.cfg.Barrier {
			st.ReadyAt = e.cfg.LayerDone[bk.ReadyLayer]
		}
		start := st.ReadyAt
		if commEnd > start {
			start = commEnd
		}
		st.Start = start
		floor := compute
		if commEnd > floor {
			floor = commEnd
		}
		commEnd = start + e.commTimes[b]
		commSum += e.commTimes[b]
		st.End = commEnd
		switch exp := commEnd - floor; {
		case e.cfg.Barrier:
			st.Exposed = e.commTimes[b]
		case exp > 0:
			st.Exposed = exp
		default:
			st.Exposed = 0
		}
	}
	stepTime = compute
	if commEnd > stepTime {
		stepTime = commEnd
	}
	exposed = stepTime - compute
	if e.cfg.Barrier {
		exposed = commSum
	}
	if e.tracer != nil {
		e.emitFlushSpans()
	}
	return commSum, exposed, stepTime
}

// LastBuckets returns the per-bucket attribution of the last composed
// step, in flush order. The slice is reused across steps — callers
// keeping it must copy.
func (e *Engine) LastBuckets() []BucketStat { return e.stats }

// emitFlushSpans draws one span per committed flush on the engine's
// cluster track (pid = tracePid, tid 0), carrying the bucket's layout,
// priced vs. realized cost and traffic census as attrs — and, for the
// hierarchical schedule, the three internal phase spans per rank on
// each rank's CommLane, placed from the phase-entry clocks the ranks
// recorded (collective-relative, so they anchor at the flush start).
func (e *Engine) emitFlushSpans() {
	base := e.traceBase
	for i := range e.stats {
		st := &e.stats[i]
		e.tracer.Span(e.tracePid, 0, fmt.Sprintf("flush[%d] %s", st.Index, st.Algorithm),
			base+st.Start, base+st.End,
			obs.Str("algorithm", st.Algorithm),
			obs.I64("lo", int64(st.Lo)), obs.I64("hi", int64(st.Hi)),
			obs.I64("bytes", int64(st.Bytes)),
			obs.F64("priced_us", st.Priced*1e6),
			obs.F64("comm_us", st.Comm*1e6),
			obs.F64("exposed_us", st.Exposed*1e6),
			obs.I64("msgs", st.Msgs),
			obs.I64("cross_msgs", st.CrossMsgs),
			obs.I64("cross_bytes", st.CrossBytes))
		if e.hierClks == nil {
			continue
		}
		s := base + st.Start
		clocks := e.clockSnaps[i]
		for r, c := range e.hierClks[i*e.cfg.Ranks : (i+1)*e.cfg.Ranks] {
			if r >= len(clocks) {
				break
			}
			e.tracer.Span(r, CommLane, "hier:intra-rs", s+c[0], s+c[1])
			e.tracer.Span(r, CommLane, "hier:leader-rhd", s+c[1], s+c[2])
			e.tracer.Span(r, CommLane, "hier:allgather", s+c[2], s+clocks[r])
		}
	}
}

// SetTrace attaches a tracer to the engine (nil detaches it): Compose
// emits one flush span per committed bucket (the barrier's one
// included) on the (pid, 0) cluster track and, for the hierarchical
// schedule, each rank's intra-RS / leader-RHD / allgather spans on
// CommLane, placed from the phase-entry clocks every flush hands each
// rank a slot of its own to record (phaseClocks): nothing global.
func (e *Engine) SetTrace(tr *obs.Tracer, pid int) {
	e.tracer, e.tracePid = tr, pid
	e.hierClks, e.clockSnaps = nil, nil
	if tr == nil {
		return
	}
	tr.NameProcess(pid, "collectives")
	tr.NameThread(pid, 0, "bucket flushes")
	for r := 0; r < e.cfg.Ranks; r++ {
		tr.NameThread(r, CommLane, "comm")
	}
	if e.strat.Name() == allreduce.NameHierarchical {
		e.clockSnaps = make([][]float64, len(e.buckets))
		e.hierClks = make([]allreduce.PhaseClocks, len(e.buckets)*e.cfg.Ranks)
	}
}

// SetTraceBase anchors the next composed step's flush spans at t on
// the cumulative trace timeline (the trainer passes its running
// compute frontier).
func (e *Engine) SetTraceBase(t float64) { e.traceBase = t }

// layoutBuckets partitions the packed vector into buckets of at least
// maxBytes, walking layers from the tail (flush order). Cuts are
// placed only at gradient production boundaries — the offsets where a
// layer's parameter block begins — because splitting gradients that
// become ready at the same instant buys no overlap and only adds
// per-collective α latency; each cut is then snapped to the strategy's
// chunk partition (a no-op for element-uniform algorithms). The second
// walk assigns each bucket the forward layer whose backward completes
// it: the frontier is the lowest produced offset, and a bucket is ready
// the moment the frontier covers its Lo.
func layoutBuckets(strat Strategy, params []ParamInfo, offs []int, total, maxBytes, layers int) []Bucket {
	maxElems := maxBytes / 4
	if maxElems < 1 {
		maxElems = 1
	}
	var out []Bucket
	hi := total
	for li := layers - 1; li >= 0 && hi > 0; li-- {
		ps := layerParamsAt(params, li)
		if len(ps) == 0 {
			continue
		}
		blockStart := offs[ps[0]]
		if hi-blockStart < maxElems || blockStart == 0 {
			continue
		}
		// Prefer the upward alignment neighbor: it leaves the bucket
		// ready the moment this layer's backward completes (the
		// spill-over below the boundary joins the next bucket). Fall
		// back to the downward neighbor when up collides with Hi.
		cut := blockStart
		if !strat.uniform {
			cut = snapChunkUp(blockStart, total, strat.chunks)
			if cut <= 0 || cut >= hi {
				cut = snapChunkDown(blockStart, total, strat.chunks)
			}
		}
		if cut > 0 && cut < hi {
			out = append(out, Bucket{Lo: cut, Hi: hi})
			hi = cut
		}
	}
	if hi > 0 {
		out = append(out, Bucket{Lo: 0, Hi: hi})
	}

	k := 0
	frontier := total
	for li := layers - 1; li >= 0 && k < len(out); li-- {
		ps := layerParamsAt(params, li)
		if len(ps) == 0 {
			continue
		}
		if off := offs[ps[0]]; off < frontier {
			frontier = off
		}
		for k < len(out) && out[k].Lo >= frontier {
			out[k].ReadyLayer = li
			k++
		}
	}
	if k != len(out) {
		panic(fmt.Sprintf("collective: %d of %d buckets never became ready (frontier %d)", len(out)-k, len(out), frontier))
	}
	return out
}

// layerParamsAt returns the indices of the params produced by layer
// li, in pack order (params arrive sorted by layer).
func layerParamsAt(params []ParamInfo, li int) []int {
	var out []int
	for i, p := range params {
		if p.Layer == li {
			out = append(out, i)
		}
	}
	return out
}

// Plan is a selected collective execution plan: the algorithm, its
// bucket cap, and the selector's modeled exposed-communication
// estimate for the pair.
type Plan struct {
	Algorithm   string
	BucketBytes int
	Exposed     float64
}

// SelectPlan is the 2-D plan selector behind Config.AlgorithmName =
// NameAuto: it runs the auto-bucket sweep of SelectBucketBytes for
// every candidate in AutoAlgorithms and returns the (algorithm,
// bucket cap) pair minimizing the modeled exposed communication.
// Tie-breaks are documented and deterministic: an exact tie on the
// exposed estimate goes to the earlier AutoAlgorithms entry (flat RHD
// first, so degenerate hierarchy shapes fall back to the flat
// algorithm), and within one algorithm to the larger cap (fewer
// collectives, fewer α latencies — SelectBucketBytes's rule). The
// decision depends only on (network topology, mapping, p, the
// layer-size histogram, the priced backward timeline) — never on host
// parallelism — so it is GOMAXPROCS-deterministic.
func SelectPlan(netw *topology.Network, mapping topology.Mapping, p int, onCPE bool,
	params []ParamInfo, layers int, layerDone []float64, computeEnd float64) (Plan, error) {
	cands, err := PlanCandidates(netw, mapping, p, onCPE, params, layers, layerDone, computeEnd)
	if err != nil {
		return Plan{}, err
	}
	return bestPlan(cands), nil
}

// PlanCandidates runs the auto-bucket sweep for every AutoAlgorithms
// entry and returns the per-algorithm winners in sweep order — the
// full decision surface SelectPlan minimizes over, exposed so the
// choice is auditable (Engine.Candidates, swtrain -explain-plan).
func PlanCandidates(netw *topology.Network, mapping topology.Mapping, p int, onCPE bool,
	params []ParamInfo, layers int, layerDone []float64, computeEnd float64) ([]Plan, error) {
	cands := make([]Plan, 0, len(AutoAlgorithms))
	for _, name := range AutoAlgorithms {
		strat, err := StrategyFor(name, mapping, p)
		if err != nil {
			return nil, err
		}
		bytes, exposed := SelectBucketBytes(strat, netw, p, onCPE, params, layers, layerDone, computeEnd)
		cands = append(cands, Plan{Algorithm: name, BucketBytes: bytes, Exposed: exposed})
	}
	return cands, nil
}

// bestPlan picks the candidate minimizing the exposed estimate, exact
// ties going to the earlier entry (SelectPlan's documented tie-break).
func bestPlan(cands []Plan) Plan {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Exposed < best.Exposed {
			best = c
		}
	}
	return best
}

// SelectBucketBytes is the auto-bucket selector: it sweeps candidate
// bucket caps, prices each candidate's flush sequence with the
// strategy's closed-form α-β cost model, composes the overlapped
// timeline exactly as Compose does, and returns the cap minimizing
// the exposed-communication estimate (ties broken toward the larger
// cap — fewer collectives, fewer α latencies) together with that
// estimate. The decision depends only on (network topology, p, the
// layer-size histogram and the priced backward timeline), so it is
// deterministic for a given configuration. The formula is documented
// at allreduce.CostByName.
func SelectBucketBytes(strat Strategy, netw *topology.Network, p int, onCPE bool,
	params []ParamInfo, layers int, layerDone []float64, computeEnd float64) (bytes int, exposed float64) {
	offs := make([]int, len(params))
	total := 0
	for i, pr := range params {
		offs[i] = total
		total += pr.Elems
	}
	totalBytes := total * 4

	var cands []int
	cands = append(cands, totalBytes) // single bucket (the barrier-shaped flush)
	for c := 32 << 20; c >= 4<<10; c >>= 1 {
		if c < totalBytes {
			cands = append(cands, c)
		}
	}

	best, bestExposed := -1, 0.0
	for _, cand := range cands {
		bks := layoutBuckets(strat, params, offs, total, cand, layers)
		var commEnd float64
		for _, bk := range bks {
			c := strat.Cost(netw, p, bk.Lo, bk.Hi, total, onCPE).Total()
			start := layerDone[bk.ReadyLayer]
			if commEnd > start {
				start = commEnd
			}
			commEnd = start + c
		}
		exp := commEnd - computeEnd
		if exp < 0 {
			exp = 0
		}
		if best < 0 || exp < bestExposed {
			best, bestExposed = cand, exp
		}
	}
	return best, bestExposed
}
