package collective_test

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/collective"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/experiments"
	"swcaffe/internal/tensor"
	"swcaffe/internal/topology"
	"swcaffe/internal/train"
)

func mlp(batch int) func() (*core.Net, map[string]*tensor.Tensor, error) {
	return func() (*core.Net, map[string]*tensor.Tensor, error) {
		net := core.NewNet("mlp", "data", "label")
		net.AddLayers(
			core.NewInnerProduct(core.InnerProductConfig{
				Name: "fc1", Bottom: "data", Top: "fc1", NumOutput: 16, BiasTerm: true}),
			core.NewReLU("relu", "fc1", "fc1", 0),
			core.NewInnerProduct(core.InnerProductConfig{
				Name: "fc2", Bottom: "fc1", Top: "fc2", NumOutput: 3, BiasTerm: true}),
			core.NewSoftmaxLoss("loss", "fc2", "label", "loss"),
		)
		inputs := map[string]*tensor.Tensor{
			"data":  tensor.New(batch, 1, 3, 3),
			"label": tensor.New(batch, 1, 1, 1),
		}
		return net, inputs, net.Setup(inputs)
	}
}

// trained is what two steps of a trainer leave: the losses' and the
// first replica's parameters' bits, and the last step's StepStats.
type trained struct {
	bits  []uint32
	stats train.StepStats
}

// train2 reports its failures with t.Error, so that it may run on any
// goroutine.
func train2(t *testing.T, cfg train.DistConfig, ds dataset.Dataset) trained {
	t.Helper()
	d, err := train.NewDistTrainer(cfg, mlp(cfg.SubBatch))
	if err != nil {
		t.Error(err)
		return trained{}
	}
	defer d.Close()
	var r trained
	for it := 0; it < 2; it++ {
		d.LoadShards(ds, it)
		r.bits = append(r.bits, math.Float32bits(d.Step()))
	}
	for _, p := range d.Workers[0].Net.LearnableParams() {
		for _, v := range p.Data.Data {
			r.bits = append(r.bits, math.Float32bits(v))
		}
	}
	if dv := d.ParamsDiverged(); dv != 0 {
		t.Errorf("replicas diverged by %g", dv)
	}
	r.stats = d.LastStep
	r.stats.Buckets = append([]collective.BucketStat(nil), d.LastStep.Buckets...)
	return r
}

func sameTrained(t *testing.T, label string, got, want trained) {
	t.Helper()
	if len(got.bits) != len(want.bits) {
		t.Fatalf("%s: %d loss and parameter values, fresh %d", label, len(got.bits), len(want.bits))
	}
	for i := range want.bits {
		if got.bits[i] != want.bits[i] {
			t.Fatalf("%s: loss or parameter bits %d: %#x, fresh %#x", label, i, got.bits[i], want.bits[i])
		}
	}
	if !got.stats.Equal(want.stats) {
		t.Fatalf("%s: StepStats %+v, fresh %+v", label, got.stats, want.stats)
	}
}

// TestRecycledStatePoison: a trainer's engine takes the per-rank views
// and DES run state a closed one left and uses them as it finds them,
// which is sound only if every element is written before it is read.
// With every view full of NaN and every DES run state left by a run of
// another shape (collective.Recycle), three runs give the bits of fresh
// buffers: the goroutine and DES trainers of the backend golden at
// p = 8, where every bucket's RHD pad spills into committed buckets or
// slack; and, without -short, an overlapped DES RHD trainer at
// p = 1023, whose fold and pad reach past the bucket, and the DES
// funcscale point at p = 512, whose three arms recycle into one another
// (its modeled numbers read no value, so what it pins is that recycling
// moves none). It also pins the hand-off: Close empties
// RankViews, a second Close hands nothing out again, two live trainers
// never share a view's array, a closed trainer's arrays do serve the
// next one, and trainers closing on several goroutines at once still
// give the bits of one alone.
func TestRecycledStatePoison(t *testing.T) {
	ds := dataset.NewClusters(2000, 3, 1, 3, 3, 0.4, 23)
	netw := topology.Sunway()
	netw.SupernodeSize = 4
	cfg := func(p int, alg string, overlap bool, backend string) train.DistConfig {
		return train.DistConfig{Nodes: p, SubBatch: 4,
			Solver:  core.SolverConfig{BaseLR: 0.05, Momentum: 0.9},
			Network: netw, Mapping: topology.AdjacentMapping{Q: 4},
			AlgorithmName: alg, Overlap: overlap, BucketBytes: 64, Backend: backend}
	}
	run := func(poison bool, c train.DistConfig) trained {
		defer collective.Recycle(poison)()
		return train2(t, c, ds)
	}
	for _, alg := range []string{allreduce.NameRHD, allreduce.NameHierarchical, allreduce.NameRing} {
		for _, overlap := range []bool{false, true} {
			label := fmt.Sprintf("p = 8 %s overlap %v", alg, overlap)
			fresh := run(false, cfg(8, alg, overlap, train.BackendGoroutine))
			sameTrained(t, label+" goroutine", run(true, cfg(8, alg, overlap, train.BackendGoroutine)), fresh)
			sameTrained(t, label+" des", run(true, cfg(8, alg, overlap, train.BackendDES)), fresh)
		}
	}
	if !testing.Short() {
		c := cfg(1023, allreduce.NameRHD, true, train.BackendDES)
		sameTrained(t, "p = 1023 rhd overlap des", run(true, c), run(false, c))

		point := func(poison bool) ([]experiments.FunctionalScalingRow, []byte) {
			defer collective.Recycle(poison)()
			var out bytes.Buffer
			return experiments.FunctionalScalingAt(&out, []int{512}, train.BackendDES), out.Bytes()
		}
		freshRows, freshOut := point(false)
		rows, out := point(true)
		if !bytes.Equal(out, freshOut) {
			t.Fatalf("funcscale p = 512:\n%s\nfresh:\n%s", out, freshOut)
		}
		for i, r := range rows {
			f := freshRows[i]
			if !r.Barrier.Equal(f.Barrier) || !r.Overlap.Equal(f.Overlap) || !r.Hier.Equal(f.Hier) {
				t.Fatalf("funcscale p = 512 row %d: %+v, fresh %+v", i, r, f)
			}
		}
	}

	// The hand-off. A trainer's engine and views exist after its first
	// Step.
	live := func() *train.DistTrainer {
		d, err := train.NewDistTrainer(cfg(8, allreduce.NameRHD, true, train.BackendDES), mlp(4))
		if err != nil {
			t.Fatal(err)
		}
		d.LoadShards(ds, 0)
		d.Step()
		return d
	}
	arrays := func(d *train.DistTrainer) []*float32 {
		var a []*float32
		for _, v := range d.Engine().RankViews() {
			a = append(a, &v[:1][0])
		}
		return a
	}
	closed := live()
	was := arrays(closed)
	closed.Close()
	closed.Close()
	if v := closed.Engine().RankViews(); v != nil {
		t.Fatalf("RankViews after Close: %d views, want nil", len(v))
	}
	b, c := live(), live()
	defer b.Close()
	defer c.Close()
	owner := map[*float32]string{}
	for _, a := range was {
		owner[a] = "closed"
	}
	reused := 0
	for i, d := range []*train.DistTrainer{b, c} {
		name := [2]string{"first", "second"}[i]
		for r, a := range arrays(d) {
			switch owner[a] {
			case "closed":
				reused++
			case "":
			default:
				t.Fatalf("the %s live trainer's rank %d view shares the %s's array", name, r, owner[a])
			}
			owner[a] = name
		}
	}
	if reused == 0 {
		t.Fatal("no live trainer took a view the closed one left")
	}

	// Trainers on several goroutines at once hand views and run state
	// to one another through the pools: each must still get the bits of
	// one alone (the race detector checks the hand-offs).
	c8 := cfg(8, allreduce.NameRHD, true, train.BackendDES)
	alone := train2(t, c8, ds)
	got := make([][3]trained, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range got[g] {
				got[g][i] = train2(t, c8, ds)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, r := range got[g] {
			sameTrained(t, fmt.Sprintf("goroutine %d trainer %d", g, i), r, alone)
		}
	}
}
