package train

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/collective"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/elastic"
	"swcaffe/internal/topology"
)

// desTwinConfig builds the shared DistConfig for one backend-golden
// arm: the backend is the only variable, and it picks both the
// scheduler and the node — pooled CoreGroup launches on the goroutine
// twin, inline DES nodes on the other.
func desTwinConfig(p int, netw *topology.Network, m topology.Mapping, alg string, overlap bool, backend string) DistConfig {
	return DistConfig{
		Nodes: p, SubBatch: 4,
		Solver:        core.SolverConfig{BaseLR: 0.05, Momentum: 0.9},
		Network:       netw,
		Mapping:       m,
		AlgorithmName: alg,
		Overlap:       overlap,
		BucketBytes:   2 << 10,
		Backend:       backend,
	}
}

// runDESTwin trains iters steps on the given backend and returns the
// per-step losses plus the final StepStats.
func runDESTwin(t *testing.T, cfg DistConfig, ds dataset.Dataset, iters int) ([]float32, StepStats, *DistTrainer) {
	t.Helper()
	d, err := NewDistTrainer(cfg, mlpFactory(cfg.SubBatch, 3))
	if err != nil {
		t.Fatal(err)
	}
	losses := make([]float32, iters)
	for it := 0; it < iters; it++ {
		d.LoadShards(ds, it)
		losses[it] = d.Step()
	}
	return losses, d.LastStep, d
}

// TestDESBackendBitIdenticalToGoroutine is the tentpole golden: the
// discrete-event backend must reproduce the goroutine backend's
// training bit for bit — losses, every replica's parameters, the
// modeled StepStats (times, census, per-bucket attribution), and the
// auto-selector's pick — across barrier and overlap for every
// algorithm, including a ragged p % q != 0 hierarchical shape.
// Run under -race by `make race`.
func TestDESBackendBitIdenticalToGoroutine(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(2000, classes, 1, 3, 3, 0.4, 23)

	shapes := []struct{ p, q int }{{4, 2}, {8, 4}}
	if !testing.Short() {
		shapes = append(shapes, struct{ p, q int }{128, 8})
	}
	algs := []string{allreduce.NameRing, allreduce.NameRHD, allreduce.NameHierarchical, collective.NameAuto}

	check := func(t *testing.T, p, q int, alg string, overlap bool) {
		netw, mapping := hierNet(q)
		cfgG := desTwinConfig(p, netw, mapping, alg, overlap, BackendGoroutine)
		cfgD := desTwinConfig(p, netw, mapping, alg, overlap, BackendDES)
		const iters = 2
		lossG, statsG, dG := runDESTwin(t, cfgG, ds, iters)
		defer dG.Close()
		lossD, statsD, dD := runDESTwin(t, cfgD, ds, iters)
		defer dD.Close()

		for it := range lossG {
			if lossG[it] != lossD[it] {
				t.Fatalf("step %d loss: goroutine %v des %v", it, lossG[it], lossD[it])
			}
		}
		if !statsG.Equal(statsD) {
			t.Fatalf("StepStats differ:\ngoroutine %+v\ndes       %+v", statsG, statsD)
		}
		if gn, dn := dG.Engine().StrategyName(), dD.Engine().StrategyName(); gn != dn {
			t.Fatalf("selector pick: goroutine %q des %q", gn, dn)
		}
		pg := dG.Workers[0].Net.LearnableParams()
		pd := dD.Workers[0].Net.LearnableParams()
		for i := range pg {
			for j := range pg[i].Data.Data {
				if pg[i].Data.Data[j] != pd[i].Data.Data[j] {
					t.Fatalf("param %q elem %d: goroutine %v des %v",
						pg[i].Name, j, pg[i].Data.Data[j], pd[i].Data.Data[j])
				}
			}
		}
		if d := dD.ParamsDiverged(); d != 0 {
			t.Fatalf("DES replicas diverged by %g", d)
		}
	}

	for _, sh := range shapes {
		for _, alg := range algs {
			for _, overlap := range []bool{false, true} {
				name := fmt.Sprintf("p%d_q%d_%s_overlap%v", sh.p, sh.q, alg, overlap)
				t.Run(name, func(t *testing.T) { check(t, sh.p, sh.q, alg, overlap) })
			}
		}
	}
	// Ragged hierarchy: p % q != 0 exercises the short tail group in
	// phases A/C and the non-member leader ranks in phase B.
	t.Run("ragged_p10_q4", func(t *testing.T) {
		check(t, 10, 4, allreduce.NameHierarchical, true)
		check(t, 10, 4, allreduce.NameHierarchical, false)
	})
}

// TestDESBackendRejectsIncompatibleConfig pins the validation surface:
// the DES backend cannot host the fault machinery (the goroutine
// backend stays the failure oracle), nor a backend it does not know.
func TestDESBackendRejectsIncompatibleConfig(t *testing.T) {
	netw, mapping := hierNet(2)
	base := desTwinConfig(4, netw, mapping, allreduce.NameRing, false, BackendDES)

	bad := base
	bad.Faults = &elastic.FaultPlan{}
	if _, err := NewDistTrainer(bad, mlpFactory(4, 3)); err == nil {
		t.Fatal("Faults + DES accepted")
	}
	bad = base
	bad.Backend = "threads"
	if _, err := NewDistTrainer(bad, mlpFactory(4, 3)); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// goroutinesSettle polls until the live goroutine count drops to at
// most limit, tolerating the runtime's lazily-exiting helpers.
func goroutinesSettle(limit int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > limit && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestDESSweepLeaksNoGoroutines is the leak regression the paper-scale
// sweeps depend on: a p=1024 DES functional point spawns zero rank or
// launch goroutines, and a goroutine-backend run with an injected
// collective fault still drains every rank (PR 3's quiesce semantics).
func TestDESSweepLeaksNoGoroutines(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(2000, classes, 1, 3, 3, 0.4, 31)
	before := runtime.NumGoroutine()

	p := 1024
	if testing.Short() {
		p = 128
	}
	netw, mapping := hierNet(8)
	cfg := desTwinConfig(p, netw, mapping, collective.NameAuto, true, BackendDES)
	d, err := NewDistTrainer(cfg, mlpFactory(cfg.SubBatch, classes))
	if err != nil {
		t.Fatal(err)
	}
	d.LoadShards(ds, 0)
	mid := runtime.NumGoroutine()
	d.Step()
	d.Close()
	// The DES path must not have spawned per-rank machinery at all: the
	// count during the run stays at the baseline, not baseline + O(p).
	if mid > before+8 {
		t.Fatalf("DES trainer construction grew goroutines from %d to %d", before, mid)
	}
	if after := goroutinesSettle(before + 8); after > before+8 {
		t.Fatalf("goroutines leaked across a DES sweep: %d -> %d", before, after)
	}

	// Goroutine backend + injected collective fault: the failure path
	// must quiesce every in-flight pass and rank (nothing left parked).
	fp := mustParseFaultPlan(t, "1@0:flush")
	gcfg := desTwinConfig(8, netw, mapping, allreduce.NameRing, true, BackendGoroutine)
	gcfg.Faults = fp
	g, err := NewDistTrainer(gcfg, mlpFactory(gcfg.SubBatch, classes))
	if err != nil {
		t.Fatal(err)
	}
	g.LoadShards(ds, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected fault did not surface")
			}
		}()
		g.Step()
	}()
	g.Close()
	if after := goroutinesSettle(before + 8); after > before+8 {
		t.Fatalf("goroutines leaked across a faulted goroutine-backend run: %d -> %d", before, after)
	}
}

// vgg16Params is the paper workload's parameter histogram at the
// granularity the plan selector sees: VGG16's conv stacks and the
// three classifier layers, ~138M learnables.
func vgg16Params() []collective.ParamInfo {
	convs := []int{
		3 * 64 * 9, 64 * 64 * 9,
		64 * 128 * 9, 128 * 128 * 9,
		128 * 256 * 9, 256 * 256 * 9, 256 * 256 * 9,
		256 * 512 * 9, 512 * 512 * 9, 512 * 512 * 9,
		512 * 512 * 9, 512 * 512 * 9, 512 * 512 * 9,
	}
	fcs := []int{25088 * 4096, 4096 * 4096, 4096 * 1000}
	var params []collective.ParamInfo
	for i, e := range append(convs, fcs...) {
		params = append(params, collective.ParamInfo{Layer: i, Elems: e})
	}
	return params
}

// TestDESSelectorPicksHierarchicalAtPaperScale validates the paper's
// claim at machine scale: on the real Sunway parameters (q = 256,
// adjacent mapping) with the paper's VGG16 gradient volume, SelectPlan
// must choose the hierarchical schedule at p = 512, 1024 and 4096 —
// and the DES backend must actually train at those sizes (with a
// test-sized net; a live 138M-param replica set would not fit).
// The p = 4096 live point runs only without -short.
func TestDESSelectorPicksHierarchicalAtPaperScale(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(8192, classes, 1, 3, 3, 0.4, 47)
	netw := topology.Sunway()
	mapping := topology.AdjacentMapping{Q: netw.SupernodeSize}
	if netw.SupernodeSize != 256 {
		t.Fatalf("Sunway supernode size: got %d want 256", netw.SupernodeSize)
	}
	params := vgg16Params()
	layers := len(params)
	layerDone := make([]float64, layers)
	for _, p := range []int{512, 1024, 4096} {
		plan, err := collective.SelectPlan(netw, mapping, p, true, params, layers, layerDone, 0)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Algorithm != allreduce.NameHierarchical {
			t.Fatalf("p=%d: SelectPlan picked %q for the VGG16 volume, want %q",
				p, plan.Algorithm, allreduce.NameHierarchical)
		}
	}

	sizes := []int{512, 1024}
	if !testing.Short() {
		sizes = append(sizes, 4096)
	}
	for _, p := range sizes {
		cfg := desTwinConfig(p, netw, mapping, collective.NameAuto, false, BackendDES)
		d, err := NewDistTrainer(cfg, mlpFactory(cfg.SubBatch, classes))
		if err != nil {
			t.Fatal(err)
		}
		d.LoadShards(ds, 0)
		loss := d.Step()
		if math.IsNaN(float64(loss)) {
			t.Fatalf("p=%d: NaN loss", p)
		}
		if d.LastStep.Msgs <= 0 || d.LastStep.StepTime <= 0 {
			t.Fatalf("p=%d: implausible step stats %+v", p, d.LastStep)
		}
		d.Close()
	}
}
