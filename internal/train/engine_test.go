package train

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/collective"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/obs"
	"swcaffe/internal/simnet"
	"swcaffe/internal/sw26010"
	"swcaffe/internal/tensor"
	"swcaffe/internal/topology"
)

// TestRingOverlapBitIdenticalToBarrier is the golden for the
// chunk-aligned ring overlap: the ring reduces each chunk with a
// rotation order that depends on the chunk index, so naive bucketing
// breaks bit-identity — the collective engine snaps ring buckets onto
// the global chunk partition and reduces each with the full ring's
// per-chunk schedule (allreduce.Schedule.Run). Losses and every
// replica's parameters must match the one-shot barrier ring bit for
// bit, power-of-two p and not (ragged chunk bounds). Run under -race
// by `make race`.
func TestRingOverlapBitIdenticalToBarrier(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(2000, classes, 1, 8, 8, 0.4, 41)
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	for _, nodes := range []int{4, 3, 5} {
		barrier, err := NewDistTrainer(DistConfig{Nodes: nodes, SubBatch: 8, Solver: cfg,
			AlgorithmName: allreduce.NameRing}, deepFactory(8, classes))
		if err != nil {
			t.Fatal(err)
		}
		defer barrier.Close()
		overlap, err := NewDistTrainer(DistConfig{Nodes: nodes, SubBatch: 8, Solver: cfg,
			AlgorithmName: allreduce.NameRing,
			Overlap:       true, BucketBytes: 8 << 10}, deepFactory(8, classes))
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
			t.Fatalf("nodes=%d: expected multiple chunk-aligned buckets, got %d", nodes, overlap.Buckets())
		}
		bp := barrier.Workers[0].Net.LearnableParams()
		op := overlap.Workers[0].Net.LearnableParams()
		for i := range bp {
			if d := tensor.MaxDiff(bp[i].Data, op[i].Data); d != 0 {
				t.Fatalf("nodes=%d param %d: ring overlap deviates by %g from barrier (must be bit-identical)", nodes, i, d)
			}
		}
		if d := overlap.ParamsDiverged(); d != 0 {
			t.Fatalf("nodes=%d: overlap replicas diverged by %g", nodes, d)
		}
		// The engine really ran the chunk-aligned strategy, and the
		// overlap hid communication the barrier exposed.
		if name := overlap.Engine().StrategyName(); name != allreduce.NameRing {
			t.Fatalf("nodes=%d: strategy %q", nodes, name)
		}
		if overlap.ExposedCommTime >= barrier.ExposedCommTime {
			t.Fatalf("nodes=%d: ring overlap exposed %g >= barrier %g",
				nodes, overlap.ExposedCommTime, barrier.ExposedCommTime)
		}
	}
}

// TestAutoBucketOverlapBitIdenticalAndNoWorse: the α-β-selected bucket
// cap must keep the overlap bit-identical to the barrier path and
// produce modeled exposed communication no worse than the fixed
// collective.DefaultBucketBytes cap (which, for this small net, degenerates to a
// single barrier-shaped bucket).
func TestAutoBucketOverlapBitIdenticalAndNoWorse(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(2000, classes, 1, 8, 8, 0.4, 43)
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	mk := func(overlap, auto bool, bucketBytes int) *DistTrainer {
		d, err := NewDistTrainer(DistConfig{Nodes: 4, SubBatch: 8, Solver: cfg,
			Overlap: overlap, AutoBucket: auto, BucketBytes: bucketBytes}, deepFactory(8, classes))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	barrier := mk(false, false, 0)
	fixed := mk(true, false, collective.DefaultBucketBytes)
	auto := mk(true, true, 0)
	defer barrier.Close()
	defer fixed.Close()
	defer auto.Close()
	for it := 0; it < 6; it++ {
		for _, d := range []*DistTrainer{barrier, fixed, auto} {
			d.LoadShards(ds, it)
		}
		lb, lf, la := barrier.Step(), fixed.Step(), auto.Step()
		if lb != lf || lb != la {
			t.Fatalf("iter %d: losses diverge: barrier %v fixed %v auto %v", it, lb, lf, la)
		}
	}
	bp := barrier.Workers[0].Net.LearnableParams()
	ap := auto.Workers[0].Net.LearnableParams()
	for i := range bp {
		if d := tensor.MaxDiff(bp[i].Data, ap[i].Data); d != 0 {
			t.Fatalf("param %d: auto-bucket overlap deviates by %g from barrier (must be bit-identical)", i, d)
		}
	}
	if !auto.Engine().Auto() {
		t.Fatal("auto trainer did not auto-select")
	}
	if auto.Engine().BucketBytes() >= collective.DefaultBucketBytes {
		t.Fatalf("auto selected %d bytes; expected finer than the %d default for this tiny net",
			auto.Engine().BucketBytes(), collective.DefaultBucketBytes)
	}
	if auto.LastStep.Exposed > fixed.LastStep.Exposed {
		t.Fatalf("auto-bucket exposed %g worse than fixed default %g",
			auto.LastStep.Exposed, fixed.LastStep.Exposed)
	}
	if auto.Buckets() <= fixed.Buckets() {
		t.Fatalf("auto buckets %d not finer than fixed default's %d", auto.Buckets(), fixed.Buckets())
	}
}

// TestPooledClusterP128Smoke is the functional-scaling smoke at p in
// the hundreds on the goroutine backend: 128 pooled nodes run real
// synchronous steps, private replicas stay bit-consistent, the
// modeled decomposition is sane, and every rank's passes landed on its
// own node.
func TestPooledClusterP128Smoke(t *testing.T) {
	const p, classes = 128, 3
	ds := dataset.NewClusters(4096, classes, 1, 3, 3, 0.4, 53)
	d, err := NewDistTrainer(DistConfig{Nodes: p, SubBatch: 2,
		Solver:  core.SolverConfig{BaseLR: 0.05, Momentum: 0.9},
		Overlap: true, BucketBytes: 1 << 10}, mlpFactory(2, classes))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for it := 0; it < 2; it++ {
		d.LoadShards(ds, it)
		d.Step()
	}
	if div := d.ParamsDiverged(); div != 0 {
		t.Fatalf("replicas diverged by %g at p=%d", div, p)
	}
	st := d.LastStep
	if st.Compute <= 0 || st.Comm <= 0 || st.StepTime < st.Compute {
		t.Fatalf("degenerate StepStats at p=%d: %+v", p, st)
	}
	if st.Exposed >= st.Comm {
		t.Fatalf("overlap exposed everything at p=%d: %+v", p, st)
	}
	for _, r := range []int{0, p - 1} {
		n := d.Node(r)
		if n.Launches() == 0 {
			t.Fatalf("rank %d ran no pass on its node", r)
		}
		// Only a pooled node takes a CoreGroup launch: a DES node panics.
		n.NewStream().Launch(func(*sw26010.CoreGroup) float64 { return 0 }).Wait()
	}
}

// passPlacements reports, for each worker, which of its node's four
// CoreGroup slots its pass launch was placed on since tr was last
// reset: the CG track of the rank's "pass" span.
func passPlacements(t *testing.T, d *DistTrainer, tr *obs.Tracer) []int {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	tr.Reset()
	var trace struct {
		TraceEvents []struct {
			Name, Ph string
			Pid, Tid int
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(d.Workers))
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" && ev.Name == "pass" {
			out[ev.Pid] = ev.Tid
		}
	}
	return out
}

// TestWeightedPassPlacementDeterministic pins the scheduler-cost-hint
// wiring: pass launches carry the swdnn-plan-priced pass cost as their
// scheduling weight on unpinned streams, so the least-loaded placement
// (a) rotates deterministically over the four CG slots and (b) is
// identical between two identically-configured trainers.
func TestWeightedPassPlacementDeterministic(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(500, classes, 1, 3, 3, 0.4, 59)
	trA, trB := obs.New(), obs.New()
	mk := func(tr *obs.Tracer) *DistTrainer {
		d, err := NewDistTrainer(DistConfig{Nodes: 2, SubBatch: 4,
			Solver: core.SolverConfig{BaseLR: 0.05}, Tracer: tr}, mlpFactory(4, classes))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := mk(trA), mk(trB)
	defer a.Close()
	defer b.Close()
	var seqA, seqB [][]int
	seen := map[int]bool{}
	for it := 0; it < 8; it++ {
		a.LoadShards(ds, it)
		b.LoadShards(ds, it)
		a.Step()
		b.Step()
		pa, pb := passPlacements(t, a, trA), passPlacements(t, b, trB)
		if len(pa) != 2 || len(pb) != 2 {
			t.Fatalf("iter %d: placements %v / %v", it, pa, pb)
		}
		seqA = append(seqA, pa)
		seqB = append(seqB, pb)
		for _, cg := range pa {
			seen[cg] = true
		}
	}
	for it := range seqA {
		for w := range seqA[it] {
			if seqA[it][w] != seqB[it][w] {
				t.Fatalf("placement diverged between identical trainers at iter %d: %v vs %v", it, seqA[it], seqB[it])
			}
		}
	}
	// Equal per-step weights rotate the least-loaded choice across all
	// four CG slots over 8 steps.
	if len(seen) != 4 {
		t.Fatalf("weighted placement used CG slots %v, want all 4", seen)
	}
}

// hierNet returns a q-sized-supernode Sunway network and the adjacent
// mapping — the configuration where the hierarchical schedule is
// non-degenerate at test-sized clusters.
func hierNet(q int) (*topology.Network, topology.Mapping) {
	netw := topology.Sunway()
	netw.SupernodeSize = q
	return netw, topology.AdjacentMapping{Q: q}
}

// TestHierarchicalOverlapBitIdenticalToBarrier is the golden for the
// hierarchical overlap: the schedule reduces chunk c of the leader
// partition with an association order that depends on c (leader c's
// own value, tournament-ordered peers, the RHD tree over supernodes),
// so the collective engine snaps hierarchical buckets onto
// allreduce.ChunkBounds and reduces each with the full schedule
// restricted to the bucket (allreduce.Schedule.Run). Losses
// and every replica's parameters must match the one-shot barrier
// hierarchical bit for bit — on pooled nodes and on the DES backend.
// Run under -race by `make race`.
func TestHierarchicalOverlapBitIdenticalToBarrier(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(2000, classes, 1, 8, 8, 0.4, 61)
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	for _, nodes := range []int{4, 6} { // 2 and 3 supernodes of q=2
		netw, mapping := hierNet(2)
		mk := func(overlap bool, backend string) *DistTrainer {
			d, err := NewDistTrainer(DistConfig{Nodes: nodes, SubBatch: 8, Solver: cfg,
				Network: netw, Mapping: mapping,
				AlgorithmName: allreduce.NameHierarchical,
				Overlap:       overlap, BucketBytes: 8 << 10,
				Backend: backend}, deepFactory(8, classes))
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		barrier := mk(false, BackendGoroutine)
		overlap := mk(true, BackendGoroutine)
		desOverlap := mk(true, BackendDES)
		all := []*DistTrainer{barrier, overlap, desOverlap}
		for _, d := range all {
			defer d.Close()
		}
		for it := 0; it < 8; it++ {
			losses := make([]float32, len(all))
			for i, d := range all {
				d.LoadShards(ds, it)
				losses[i] = d.Step()
			}
			for i, l := range losses[1:] {
				if l != losses[0] {
					t.Fatalf("nodes=%d iter %d: trainer %d loss %v != barrier %v", nodes, it, i+1, l, losses[0])
				}
			}
		}
		if overlap.Buckets() < 2 {
			t.Fatalf("nodes=%d: expected multiple chunk-aligned buckets, got %d", nodes, overlap.Buckets())
		}
		bp := barrier.Workers[0].Net.LearnableParams()
		for ti, d := range all[1:] {
			op := d.Workers[0].Net.LearnableParams()
			for i := range bp {
				if diff := tensor.MaxDiff(bp[i].Data, op[i].Data); diff != 0 {
					t.Fatalf("nodes=%d trainer %d param %d: hierarchical overlap deviates by %g from barrier (must be bit-identical)",
						nodes, ti+1, i, diff)
				}
			}
			if d := d.ParamsDiverged(); d != 0 {
				t.Fatalf("nodes=%d trainer %d: replicas diverged by %g", nodes, ti+1, d)
			}
		}
		if name := overlap.Engine().StrategyName(); name != allreduce.NameHierarchical {
			t.Fatalf("nodes=%d: strategy %q", nodes, name)
		}
		if overlap.ExposedCommTime >= barrier.ExposedCommTime {
			t.Fatalf("nodes=%d: hierarchical overlap exposed %g >= barrier %g",
				nodes, overlap.ExposedCommTime, barrier.ExposedCommTime)
		}
	}
}

// TestHierarchicalSingletonSupernodeOverlap: a mapping whose last
// supernode has one member gives the hierarchical schedule a partition
// of one chunk (topology.MinGroupSize = 1), which admits no cut but the
// whole vector. The overlap layout must collapse to that one bucket —
// it once cut between layers and panicked at the first flush — and
// train hex-identically to its barrier twin on both backends.
func TestHierarchicalSingletonSupernodeOverlap(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(2000, classes, 1, 8, 8, 0.4, 61)
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	for _, nodes := range []int{3, 5} { // supernodes of q=2: {2, 1} and {2, 2, 1}
		netw, mapping := hierNet(2)
		mk := func(overlap bool, backend string) *DistTrainer {
			d, err := NewDistTrainer(DistConfig{Nodes: nodes, SubBatch: 8, Solver: cfg,
				Network: netw, Mapping: mapping,
				AlgorithmName: allreduce.NameHierarchical,
				Overlap:       overlap, BucketBytes: 2 << 10,
				Backend: backend}, deepFactory(8, classes))
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		all := []*DistTrainer{mk(false, BackendGoroutine), mk(true, BackendGoroutine), mk(false, BackendDES), mk(true, BackendDES)}
		for _, d := range all {
			defer d.Close()
		}
		for it := 0; it < 3; it++ {
			for i, d := range all {
				d.LoadShards(ds, it)
				if l, want := d.Step(), all[0].meanLoss(); i > 0 && math.Float32bits(l) != math.Float32bits(want) {
					t.Fatalf("nodes=%d iter %d: trainer %d loss %v, barrier %v", nodes, it, i, l, want)
				}
			}
		}
		bp := all[0].Workers[0].Net.LearnableParams()
		for i, d := range all {
			if d.Buckets() != 1 {
				t.Fatalf("nodes=%d trainer %d: %d buckets, want the one the 1-chunk partition admits", nodes, i, d.Buckets())
			}
			if twin := all[i%2]; !d.LastStep.Equal(twin.LastStep) {
				t.Fatalf("nodes=%d trainer %d: StepStats %+v, its goroutine twin's %+v", nodes, i, d.LastStep, twin.LastStep)
			}
			for pi, p := range d.Workers[0].Net.LearnableParams() {
				for j, v := range p.Data.Data {
					if math.Float32bits(v) != math.Float32bits(bp[pi].Data.Data[j]) {
						t.Fatalf("nodes=%d trainer %d param %d elem %d: %v, barrier %v", nodes, i, pi, j, v, bp[pi].Data.Data[j])
					}
				}
			}
			if div := d.ParamsDiverged(); div != 0 {
				t.Fatalf("nodes=%d trainer %d: replicas diverged by %g", nodes, i, div)
			}
		}
	}
}

// TestHierarchicalFlatSumsHexExact: a hierarchical trainer and a flat
// RHD trainer fed integer-valued gradients must produce hex-identical
// packed sums. The engines' barrier flushes — each one bucket, the
// whole packed vector — run over the same simnet cluster with integer payloads (sums below 2^24 are exact in float32
// regardless of association order), pinning flat-vs-hierarchical
// agreement at the trainer's flush layer rather than just inside
// internal/allreduce.
func TestHierarchicalFlatSumsHexExact(t *testing.T) {
	const nodes, classes = 6, 3
	netw, mapping := hierNet(2)
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	mk := func(alg string) *DistTrainer {
		d, err := NewDistTrainer(DistConfig{Nodes: nodes, SubBatch: 8, Solver: cfg,
			Network: netw, Mapping: mapping, AlgorithmName: alg},
			deepFactory(8, classes))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	flat := mk(allreduce.NameRHD)
	hier := mk(allreduce.NameHierarchical)
	defer flat.Close()
	defer hier.Close()
	// Drive both engines' barrier flush directly with integer payloads.
	for _, d := range []*DistTrainer{flat, hier} {
		d.ensureEngine()
		if nb := d.Buckets(); nb != 1 {
			t.Fatalf("barrier trainer has %d buckets, want 1", nb)
		}
	}
	fe, he := flat.Engine(), hier.Engine()
	for r := 0; r < nodes; r++ {
		fv, hv := fe.RankViews()[r], he.RankViews()[r]
		for i := range fv {
			v := float32((r*131+i)%509 - 254)
			fv[i], hv[i] = v, v
		}
	}
	outs := map[string][][]float32{}
	for name, d := range map[string]*DistTrainer{"flat": flat, "hier": hier} {
		eng := d.Engine()
		views := eng.RankViews()
		_, o := d.cluster.RunGather(func(n *simnet.Node) []float32 {
			return eng.ReduceSeg(n, 0, views[n.Rank])
		})
		cp := make([][]float32, nodes)
		for r := range o {
			cp[r] = append([]float32(nil), o[r]...)
		}
		outs[name] = cp
	}
	for r := 0; r < nodes; r++ {
		for i := range outs["flat"][r] {
			if outs["flat"][r][i] != outs["hier"][r][i] {
				t.Fatalf("rank %d elem %d: hierarchical sum %g != flat RHD sum %g (integer sums must be hex-exact)",
					r, i, outs["hier"][r][i], outs["flat"][r][i])
			}
		}
	}
}

// wideFactory builds a comm-heavy MLP: the 1024-wide fc2 packs a
// ~4 MB gradient far above what the priced backward window can hide,
// so the plan selector's exposed-communication estimates genuinely
// differ between algorithms — and the hierarchical schedule's smaller
// β2 bill outweighs its poor bucketability. (Compute-bound nets hide
// every candidate and tie toward flat RHD by design.)
func wideFactory(batch, classes int) func() (*core.Net, map[string]*tensor.Tensor, error) {
	return func() (*core.Net, map[string]*tensor.Tensor, error) {
		net := core.NewNet("wide", "data", "label")
		net.AddLayers(
			core.NewInnerProduct(core.InnerProductConfig{
				Name: "fc1", Bottom: "data", Top: "fc1", NumOutput: 1024, BiasTerm: true}),
			core.NewReLU("relu", "fc1", "fc1", 0),
			core.NewInnerProduct(core.InnerProductConfig{
				Name: "fc2", Bottom: "fc1", Top: "fc2", NumOutput: 1024, BiasTerm: true}),
			core.NewReLU("relu2", "fc2", "fc2", 0),
			core.NewInnerProduct(core.InnerProductConfig{
				Name: "fc3", Bottom: "fc2", Top: "fc3", NumOutput: classes, BiasTerm: true}),
			core.NewSoftmaxLoss("loss", "fc3", "label", "loss"),
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

// TestAutoPlanTrainer: DistConfig.AlgorithmName = "auto" must run the
// 2-D plan selection — picking the hierarchical strategy on a
// 2-supernode adjacent cluster whose gradient outweighs its backward
// window — and stay bit-identical to the explicitly-hierarchical
// barrier trainer.
func TestAutoPlanTrainer(t *testing.T) {
	const nodes, classes = 4, 3
	ds := dataset.NewClusters(2000, classes, 1, 3, 3, 0.4, 67)
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	netw, mapping := hierNet(2)
	auto, err := NewDistTrainer(DistConfig{Nodes: nodes, SubBatch: 2, Solver: cfg,
		Network: netw, Mapping: mapping, AlgorithmName: "auto", Overlap: true},
		wideFactory(2, classes))
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	barrier, err := NewDistTrainer(DistConfig{Nodes: nodes, SubBatch: 2, Solver: cfg,
		Network: netw, Mapping: mapping, AlgorithmName: allreduce.NameHierarchical},
		wideFactory(2, classes))
	if err != nil {
		t.Fatal(err)
	}
	defer barrier.Close()
	for it := 0; it < 4; it++ {
		auto.LoadShards(ds, it)
		barrier.LoadShards(ds, it)
		la, lb := auto.Step(), barrier.Step()
		if la != lb {
			t.Fatalf("iter %d: auto loss %v != hierarchical barrier %v", it, la, lb)
		}
	}
	eng := auto.Engine()
	if eng.Plan() == nil || !eng.Auto() {
		t.Fatal("auto trainer recorded no plan")
	}
	if got := eng.StrategyName(); got != allreduce.NameHierarchical {
		t.Fatalf("auto trainer picked %q on a 2-supernode adjacent cluster, want hierarchical", got)
	}
	bp := barrier.Workers[0].Net.LearnableParams()
	ap := auto.Workers[0].Net.LearnableParams()
	for i := range bp {
		if d := tensor.MaxDiff(bp[i].Data, ap[i].Data); d != 0 {
			t.Fatalf("param %d: auto plan deviates by %g from the hierarchical barrier (must be bit-identical)", i, d)
		}
	}
	// An unknown algorithm name still fails construction loudly.
	if _, err := NewDistTrainer(DistConfig{Nodes: 2, SubBatch: 4, Solver: cfg,
		AlgorithmName: "nope"}, mlpFactory(4, classes)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestNewDistTrainerRejectsEmptySupernodes: a network whose supernodes
// hold no node is a configuration error that names the field, on either
// backend — not an integer divide by zero in the rank mapping.
func TestNewDistTrainerRejectsEmptySupernodes(t *testing.T) {
	for _, q := range []int{0, -1} {
		for _, path := range distPaths {
			netw := topology.Sunway()
			netw.SupernodeSize = q
			_, err := NewDistTrainer(DistConfig{Nodes: 4, SubBatch: 8, Backend: path.backend, Network: netw},
				mlpFactory(4, 3))
			if err == nil || !strings.Contains(err.Error(), "SupernodeSize") {
				t.Fatalf("%s, SupernodeSize = %d: err = %v, want one naming SupernodeSize", path.name, q, err)
			}
		}
	}
}

// TestNewDistTrainerValidatesMapping: a mapping with Q = 0 is an error,
// not the divide by zero of AdjacentMapping.Supernode, and so is one
// that packs more ranks into a supernode than the network's q holds.
func TestNewDistTrainerValidatesMapping(t *testing.T) {
	netw := topology.Sunway()
	netw.SupernodeSize = 4
	for _, tc := range []struct {
		m    topology.Mapping
		want string
	}{
		{topology.AdjacentMapping{Q: 0}, "Q = 0"},
		{topology.AdjacentMapping{Q: 8}, "puts 8 ranks in supernode 0 (max 4)"},
	} {
		for _, path := range distPaths {
			_, err := NewDistTrainer(DistConfig{Nodes: 16, SubBatch: 2, Backend: path.backend,
				Network: netw, Mapping: tc.m}, mlpFactory(4, 3))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s, %+v: err = %v, want one containing %q", path.name, tc.m, err, tc.want)
			}
		}
	}
}
