package collective

import (
	"math"
	"runtime"
	"testing"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/topology"
)

// stubResult stands in for the run a hand-made set of outputs did not
// come from.
var stubResult = topology.Result{Time: 1e-3, Msgs: 8}

// uniformTimeline fabricates a priced backward timeline for a layer
// stack: layer l's backward completes at (layers-l)·step after an
// equal forward window.
func uniformTimeline(layers int, step float64) ([]float64, float64) {
	done := make([]float64, layers)
	end := 2 * float64(layers) * step
	cum := float64(layers) * step
	for l := layers - 1; l >= 0; l-- {
		cum += step
		done[l] = cum
	}
	return done, end
}

func testConfig(params []ParamInfo, layers, ranks int, name string) Config {
	done, end := uniformTimeline(layers, 1e-4)
	return Config{
		Params: params, Layers: layers, Ranks: ranks,
		Network:   topology.Sunway(),
		LayerDone: done, ComputeEnd: end,
		AlgorithmName: name,
	}
}

func checkBuckets(t *testing.T, e *Engine) {
	t.Helper()
	bks := e.Buckets()
	if len(bks) == 0 {
		t.Fatal("no buckets")
	}
	if bks[0].Hi != e.TotalElems() {
		t.Fatalf("first bucket ends at %d, want total %d", bks[0].Hi, e.TotalElems())
	}
	if bks[len(bks)-1].Lo != 0 {
		t.Fatalf("last bucket starts at %d, want 0", bks[len(bks)-1].Lo)
	}
	for i := 1; i < len(bks); i++ {
		if bks[i].Hi != bks[i-1].Lo {
			t.Fatalf("bucket %d not contiguous: %+v after %+v", i, bks[i], bks[i-1])
		}
		if bks[i].ReadyLayer > bks[i-1].ReadyLayer {
			t.Fatalf("ready layers must not increase along flush order: %+v after %+v", bks[i], bks[i-1])
		}
	}
	for _, b := range bks {
		if b.Elems() <= 0 {
			t.Fatalf("empty bucket %+v", b)
		}
	}
}

// TestRingBucketsChunkAligned: with the ring strategy every interior
// bucket boundary must land on ChunkBounds(total, p) — including
// ragged totals (total%p != 0) where the chunk partition is uneven.
func TestRingBucketsChunkAligned(t *testing.T) {
	for _, ranks := range []int{3, 4, 5} {
		params := []ParamInfo{
			{Layer: 0, Elems: 817}, {Layer: 0, Elems: 13},
			{Layer: 2, Elems: 2048}, {Layer: 4, Elems: 331}, {Layer: 6, Elems: 7},
		}
		cfg := testConfig(params, 8, ranks, allreduce.NameRing)
		cfg.BucketBytes = 1 << 10
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkBuckets(t, e)
		if len(e.Buckets()) < 2 {
			t.Fatalf("ranks=%d: expected several chunk-aligned buckets, got %d", ranks, len(e.Buckets()))
		}
		bounds := map[int]bool{}
		for _, b := range allreduce.ChunkBounds(e.TotalElems(), ranks) {
			bounds[b] = true
		}
		for _, bk := range e.Buckets() {
			if !bounds[bk.Lo] || !bounds[bk.Hi] {
				t.Fatalf("ranks=%d: bucket %+v not on chunk bounds %v", ranks, bk, allreduce.ChunkBounds(e.TotalElems(), ranks))
			}
		}
	}
}

// TestOversizedLayerSingleBucket: a layer far bigger than the bucket
// cap still becomes one flush unit — its gradients are all produced at
// the same instant, so splitting them buys no overlap and only adds
// per-collective latency.
func TestOversizedLayerSingleBucket(t *testing.T) {
	params := []ParamInfo{
		{Layer: 0, Elems: 100},
		{Layer: 2, Elems: 1 << 16}, // oversized vs the 1 KB cap below
		{Layer: 4, Elems: 100},
	}
	for _, name := range []string{allreduce.NameRHD, allreduce.NameRing} {
		cfg := testConfig(params, 6, 4, name)
		cfg.BucketBytes = 1 << 10
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkBuckets(t, e)
		// The oversized layer's elements must not be spread over more
		// than the two buckets its (snapped) production boundaries can
		// create.
		lo, hi := 100, 100+1<<16
		spanning := 0
		for _, bk := range e.Buckets() {
			if bk.Lo < hi && bk.Hi > lo {
				spanning++
			}
		}
		if spanning > 2 {
			t.Fatalf("%s: oversized layer split across %d buckets: %+v", name, spanning, e.Buckets())
		}
	}
}

// TestUniformBucketsCutAtProductionBoundaries: element-uniform
// strategies cut exactly at layer block starts, so buckets never split
// a single layer's simultaneously-produced gradients.
func TestUniformBucketsCutAtProductionBoundaries(t *testing.T) {
	params := []ParamInfo{
		{Layer: 0, Elems: 500}, {Layer: 1, Elems: 600},
		{Layer: 2, Elems: 700}, {Layer: 3, Elems: 800},
	}
	cfg := testConfig(params, 4, 4, allreduce.NameRHD)
	cfg.BucketBytes = 4 * 650 // elems cap 650
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkBuckets(t, e)
	starts := map[int]bool{0: true, 500: true, 1100: true, 1800: true, 2600: true}
	for _, bk := range e.Buckets() {
		if !starts[bk.Lo] {
			t.Fatalf("bucket %+v does not start on a production boundary", bk)
		}
	}
	// Layers 3 and 2 exceed the cap alone; layers 1+0 together stay
	// within one flush unit until layer 0 closes the walk.
	if len(e.Buckets()) != 3 {
		t.Fatalf("want buckets {3}, {2}, {1,0} at this cap, got %+v", e.Buckets())
	}
}

// TestAutoBucketDeterministicAcrossGOMAXPROCS: the α-β selector's
// choice must depend only on (topology, p, layer histogram, priced
// timeline) — never on host parallelism.
func TestAutoBucketDeterministicAcrossGOMAXPROCS(t *testing.T) {
	params := []ParamInfo{
		{Layer: 0, Elems: 2000}, {Layer: 2, Elems: 60000},
		{Layer: 4, Elems: 9000}, {Layer: 6, Elems: 123},
	}
	build := func() *Engine {
		cfg := testConfig(params, 8, 8, allreduce.NameRHD)
		cfg.AutoBucket = true
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	var bytes []int
	var buckets [][]Bucket
	for _, procs := range []int{1, 2, old} {
		runtime.GOMAXPROCS(procs)
		e := build()
		bytes = append(bytes, e.BucketBytes())
		buckets = append(buckets, e.Buckets())
	}
	for i := 1; i < len(bytes); i++ {
		if bytes[i] != bytes[0] {
			t.Fatalf("auto bucket size varies with GOMAXPROCS: %v", bytes)
		}
		if len(buckets[i]) != len(buckets[0]) {
			t.Fatalf("bucket layout varies with GOMAXPROCS: %v vs %v", buckets[i], buckets[0])
		}
		for b := range buckets[i] {
			if buckets[i][b] != buckets[0][b] {
				t.Fatalf("bucket %d varies with GOMAXPROCS: %+v vs %+v", b, buckets[i][b], buckets[0][b])
			}
		}
	}
}

// TestAutoBucketBeatsFixedDefault: for a workload whose gradients are
// tiny next to DefaultBucketBytes, the selector must find a cap with a
// strictly lower exposed-communication estimate than the fixed
// default's single barrier-shaped bucket.
func TestAutoBucketBeatsFixedDefault(t *testing.T) {
	params := []ParamInfo{
		{Layer: 0, Elems: 2000}, {Layer: 2, Elems: 60000},
		{Layer: 4, Elems: 9000}, {Layer: 6, Elems: 123},
	}
	done, end := uniformTimeline(8, 1e-4)
	strat, err := StrategyFor(allreduce.NameRHD, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	netw := topology.Sunway()
	bytes, exposed := SelectBucketBytes(strat, netw, 8, true, params, 8, done, end)
	if bytes >= DefaultBucketBytes {
		t.Fatalf("selector picked %d bytes, expected finer than the %d default", bytes, DefaultBucketBytes)
	}
	// Price the fixed default the same way the selector prices its
	// candidates.
	offs := make([]int, len(params))
	total := 0
	for i, p := range params {
		offs[i] = total
		total += p.Elems
	}
	var commEnd float64
	for _, bk := range layoutBuckets(strat, params, offs, total, DefaultBucketBytes, 8) {
		c := strat.Cost(netw, 8, bk.Lo, bk.Hi, total, true).Total()
		start := done[bk.ReadyLayer]
		if commEnd > start {
			start = commEnd
		}
		commEnd = start + c
	}
	defExposed := commEnd - end
	if defExposed < 0 {
		defExposed = 0
	}
	if !(exposed < defExposed) {
		t.Fatalf("auto exposure %g not below fixed-default exposure %g", exposed, defExposed)
	}
}

// TestEngineConfigValidation: misconfiguration must fail construction,
// not a later Step.
func TestEngineConfigValidation(t *testing.T) {
	good := testConfig([]ParamInfo{{Layer: 0, Elems: 10}}, 2, 2, "")
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// A fully frozen net (no learnable params) must build: zero
	// buckets, empty full-flush — the pre-engine trainer allowed it.
	frozen := good
	frozen.Params = nil
	if e, err := New(frozen); err != nil {
		t.Fatalf("frozen net rejected: %v", err)
	} else if len(e.Buckets()) != 0 || e.TotalElems() != 0 {
		t.Fatalf("frozen net engine not degenerate: %+v", e.Buckets())
	}
	// Under Barrier it keeps its one flush, empty and priced at nothing.
	frozen.Barrier = true
	if e, err := New(frozen); err != nil {
		t.Fatalf("frozen barrier net rejected: %v", err)
	} else if bks := e.Buckets(); len(bks) != 1 || bks[0] != (Bucket{}) || e.prices[0] != 0 {
		t.Fatalf("frozen barrier engine: buckets %+v, priced %v; want one empty flush", bks, e.prices)
	}
	for name, mutate := range map[string]func(*Config){
		"no ranks":     func(c *Config) { c.Ranks = 0 },
		"nil network":  func(c *Config) { c.Network = nil },
		"bad layer":    func(c *Config) { c.Params = []ParamInfo{{Layer: 7, Elems: 10}} },
		"bad timeline": func(c *Config) { c.LayerDone = c.LayerDone[:1] },
		"unknown alg":  func(c *Config) { c.AlgorithmName = "nope" },
	} {
		cfg := testConfig([]ParamInfo{{Layer: 0, Elems: 10}}, 2, 2, "")
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// adjacentConfig builds a test Config on a q-sized-supernode Sunway
// network under the adjacent mapping — the shape where hierarchy pays.
func adjacentConfig(params []ParamInfo, layers, ranks, q int, name string) Config {
	cfg := testConfig(params, layers, ranks, name)
	netw := topology.Sunway()
	netw.SupernodeSize = q
	cfg.Network = netw
	cfg.Mapping = topology.AdjacentMapping{Q: q}
	return cfg
}

// TestHierBucketsChunkAligned: with the hierarchical strategy every
// interior bucket boundary must land on the leader-chunk partition
// ChunkBounds(total, MinGroupSize) — including ragged group sizes
// where the partition is coarser than the rank count.
func TestHierBucketsChunkAligned(t *testing.T) {
	for _, tc := range []struct{ ranks, q int }{{4, 2}, {6, 2}, {6, 3}, {8, 4}} {
		params := []ParamInfo{
			{Layer: 0, Elems: 817}, {Layer: 0, Elems: 13},
			{Layer: 2, Elems: 2048}, {Layer: 4, Elems: 331}, {Layer: 6, Elems: 7},
		}
		cfg := adjacentConfig(params, 8, tc.ranks, tc.q, allreduce.NameHierarchical)
		cfg.BucketBytes = 1 << 10
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkBuckets(t, e)
		K := topology.MinGroupSize(cfg.Mapping, tc.ranks)
		bounds := map[int]bool{}
		for _, b := range allreduce.ChunkBounds(e.TotalElems(), K) {
			bounds[b] = true
		}
		for _, bk := range e.Buckets() {
			if !bounds[bk.Lo] || !bounds[bk.Hi] {
				t.Fatalf("ranks=%d q=%d: bucket %+v not on leader-chunk bounds %v",
					tc.ranks, tc.q, bk, allreduce.ChunkBounds(e.TotalElems(), K))
			}
		}
	}
}

// bigNetTimeline fabricates the selector inputs for an AlexNet-scale
// gradient whose backward window cannot hide the communication, so
// the exposed-comm estimates of the algorithms genuinely differ.
func bigNetTimeline() ([]ParamInfo, int, []float64, float64) {
	const layers = 16
	params := make([]ParamInfo, layers)
	for i := range params {
		params[i] = ParamInfo{Layer: i, Elems: 232.6e6 / 4 / layers}
	}
	done, end := uniformTimeline(layers, 1e-3)
	return params, layers, done, end
}

// TestSelectPlanPicksHierarchicalAtScale is the acceptance pin of the
// 2-D selector: at Sunway topology (q=256) under the adjacent mapping
// with p > q, the modeled hierarchical all-reduce beats flat RHD
// (Eqn. 4) and SelectPlan picks it automatically; at p ≤ q the
// hierarchical schedule degenerates (ring-like latency, no β2 relief)
// and the selector falls back to a flat algorithm.
func TestSelectPlanPicksHierarchicalAtScale(t *testing.T) {
	params, layers, done, end := bigNetTimeline()
	netw := topology.Sunway()
	adjacent := topology.AdjacentMapping{Q: netw.SupernodeSize}
	for _, p := range []int{512, 1024, 4096} {
		hier := allreduce.HierarchicalCost(netw, p, 232.6e6, true).Total()
		flat := allreduce.OriginalRHDCost(netw, p, 232.6e6, true).Total()
		if hier >= flat {
			t.Fatalf("p=%d: hierarchical makespan %g does not beat flat RHD %g", p, hier, flat)
		}
		plan, err := SelectPlan(netw, adjacent, p, true, params, layers, done, end)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Algorithm != allreduce.NameHierarchical {
			t.Fatalf("p=%d adjacent: SelectPlan picked %q, want hierarchical (exposed %g)", p, plan.Algorithm, plan.Exposed)
		}
	}
	for _, p := range []int{2, 16, 256} { // p <= q: single supernode
		plan, err := SelectPlan(netw, adjacent, p, true, params, layers, done, end)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Algorithm == allreduce.NameHierarchical {
			t.Fatalf("p=%d <= q: SelectPlan must fall back to a flat algorithm, picked %q", p, plan.Algorithm)
		}
	}
}

// TestSelectPlanDeterministicAcrossGOMAXPROCS: the 2-D selection must
// depend only on (topology, mapping, p, layer histogram, priced
// timeline) — never on host parallelism.
func TestSelectPlanDeterministicAcrossGOMAXPROCS(t *testing.T) {
	params, layers, done, end := bigNetTimeline()
	netw := topology.Sunway()
	adjacent := topology.AdjacentMapping{Q: netw.SupernodeSize}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	var plans []Plan
	for _, procs := range []int{1, 2, old} {
		runtime.GOMAXPROCS(procs)
		plan, err := SelectPlan(netw, adjacent, 1024, true, params, layers, done, end)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	for _, pl := range plans[1:] {
		if pl != plans[0] {
			t.Fatalf("plan varies with GOMAXPROCS: %+v vs %+v", pl, plans[0])
		}
	}
}

// TestEngineAutoAlgorithm: Config.AlgorithmName = NameAuto must run
// the 2-D selection and install the winning strategy — hierarchical
// on a 4-supernode adjacent cluster (equal α and γ, strictly less β2
// than flat RHD), flat RHD when one supernode holds every rank.
func TestEngineAutoAlgorithm(t *testing.T) {
	params := []ParamInfo{
		{Layer: 0, Elems: 200000}, {Layer: 2, Elems: 600000},
		{Layer: 4, Elems: 90000}, {Layer: 6, Elems: 12300},
	}
	cfg := adjacentConfig(params, 8, 8, 2, NameAuto)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Plan() == nil || !e.Auto() {
		t.Fatal("auto engine did not record a plan")
	}
	if got := e.StrategyName(); got != allreduce.NameHierarchical {
		t.Fatalf("auto engine installed %q, want hierarchical (plan %+v)", got, *e.Plan())
	}
	if e.BucketBytes() != e.Plan().BucketBytes {
		t.Fatalf("bucket cap %d != plan %d", e.BucketBytes(), e.Plan().BucketBytes)
	}
	checkBuckets(t, e)

	flat := adjacentConfig(params, 8, 8, 256, NameAuto) // p <= q
	e2, err := New(flat)
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.StrategyName(); got == allreduce.NameHierarchical {
		t.Fatalf("single-supernode auto engine picked hierarchical")
	}
	// A fixed-algorithm engine records no plan.
	fixed := adjacentConfig(params, 8, 8, 2, allreduce.NameRHD)
	e3, err := New(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if e3.Plan() != nil || e3.Auto() {
		t.Fatal("fixed-algorithm engine claims a selected plan")
	}
}

// backwardPool runs a pool's workers one at a time, last first: a split
// whose result depends on which worker runs when shows.
func backwardPool(k int, fn func(m int)) {
	for m := k - 1; m >= 0; m-- {
		fn(m)
	}
}

// TestCommitChecksRanksWithoutGradients: with one gradient set for all
// ranks (a trainer whose ranks share one model) Commit drains rank 0's
// reduced output, once, and compares every other rank's to it bit for
// bit. Equal outputs report 0; one element of one rank off by one ulp —
// or differing only in the sign of a zero — is reported, and does not
// change what is drained. With a set per rank each rank's output is
// drained into its own set and still compared: the ulp is reported
// there too, since the models' parameters need not show it. The
// whole-vector checks commit the one bucket of a barrier engine.
func TestCommitChecksRanksWithoutGradients(t *testing.T) {
	const ranks = 4
	// commit commits on the calling goroutine and split among three
	// workers, which must find the same worst mismatch.
	commit := func(e *Engine, b int, outs [][]float32, grads [][][]float32) float64 {
		t.Helper()
		d := e.Commit(b, outs, stubResult, grads, allreduce.Pool{})
		if split := e.Commit(b, outs, stubResult, grads, allreduce.Pool{K: 3, Run: backwardPool}); math.Float64bits(split) != math.Float64bits(d) {
			t.Fatalf("bucket %d: the compare split among 3 workers found %g, on one %g", b, split, d)
		}
		return d
	}
	params := []ParamInfo{{Layer: 0, Elems: 5}, {Layer: 1, Elems: 3}}
	cfg := testConfig(params, 2, ranks, allreduce.NameRHD)
	cfg.BucketBytes = 8 // one bucket per layer
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Buckets()) != 2 {
		t.Fatalf("%d buckets, want 2", len(e.Buckets()))
	}
	cfg.Barrier = true
	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bks := full.Buckets(); len(bks) != 1 || bks[0] != (Bucket{Lo: 0, Hi: 8, ReadyLayer: 0}) {
		t.Fatalf("barrier layout %+v, want the one bucket [0, 8)", bks)
	}
	sum := []float32{4, -8, 0, 0.3, 12, 1e-3, -2, 7}
	newOuts := func() [][]float32 {
		outs := make([][]float32, ranks)
		for r := range outs {
			outs[r] = append([]float32(nil), sum...)
		}
		return outs
	}
	shared := [][][]float32{{make([]float32, 5), make([]float32, 3)}}
	drained := func() []float32 { return append(append([]float32(nil), shared[0][0]...), shared[0][1]...) }

	if d := commit(full, 0, newOuts(), shared); d != 0 {
		t.Fatalf("identical outputs reported a mismatch of %g", d)
	}
	want := drained()
	for i, v := range sum {
		if want[i] != v/ranks {
			t.Fatalf("drained[%d] = %v, want the average %v", i, want[i], v/ranks)
		}
	}

	ulp := newOuts()
	ulp[2][3] = math.Nextafter32(sum[3], 1)
	if d := commit(full, 0, ulp, shared); !(d > 0) || d > 1e-7 {
		t.Fatalf("rank 2 off by one ulp reported %g, want the ulp", d)
	}
	zero := newOuts()
	zero[3][2] = float32(math.Copysign(0, -1))
	if d := commit(full, 0, zero, shared); !math.IsInf(d, 1) {
		t.Fatalf("rank 3 differing in the sign of a zero reported %g, want +Inf", d)
	}
	for i, v := range drained() {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("a diverged rank changed drained[%d]: %v, want rank 0's %v", i, v, want[i])
		}
	}
	// Every view holds the same NaN at [6]: bit-identical, no mismatch.
	// Then rank 1's gets another payload: no difference of value, a
	// difference of bits.
	nan := newOuts()
	for r := range nan {
		nan[r][6] = math.Float32frombits(0x7fc00000)
	}
	if d := commit(full, 0, nan, shared); d != 0 {
		t.Fatalf("the same NaN in every view reported a mismatch of %g", d)
	}
	nan[1][6] = math.Float32frombits(0x7fc00001)
	if d := commit(full, 0, nan, shared); !math.IsInf(d, 1) {
		t.Fatalf("rank 1 holding another NaN payload than rank 0 reported %g, want +Inf", d)
	}
	// The byte compare answers only for equal views; a difference still
	// reports the scan's exact worst |a - b|.
	milli := newOuts()
	milli[3][5] = 0
	if d := commit(full, 0, milli, shared); d != float64(sum[5]) {
		t.Fatalf("rank 3 off by %g reported %g, want exactly the difference", sum[5], d)
	}

	// A bucket commit sweeps its own range of the outputs only.
	for b, bk := range e.Buckets() {
		outs := make([][]float32, ranks)
		for r := range outs {
			outs[r] = append([]float32(nil), sum[bk.Lo:bk.Hi]...)
		}
		outs[1][0]++
		if d := commit(e, b, outs, shared); math.Abs(d-1) > 1e-6 {
			t.Fatalf("bucket %d: rank 1 off by 1 reported %g", b, d)
		}
	}

	private := make([][][]float32, ranks)
	for r := range private {
		private[r] = [][]float32{make([]float32, 5), make([]float32, 3)}
	}
	if d := commit(full, 0, ulp, private); !(d > 0) || d > 1e-7 {
		t.Fatalf("private gradient sets: rank 2 off by one ulp reported %g, want the ulp", d)
	}
	if got, w := private[2][0][3], ulp[2][3]/ranks; got != w {
		t.Fatalf("rank 2's own output was not drained into its set: %v, want %v", got, w)
	}
}
