package train

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/tensor"
)

// The DES backend runs its passes on a pool of k = min(GOMAXPROCS, p)
// shared models. k is the host's business: these tests hold the
// trainer to one result at every k, on the success path and on the
// failure path.

// withGOMAXPROCS runs fn at GOMAXPROCS n and restores the setting.
func withGOMAXPROCS(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// poolRun is what a DES trainer produced: each step's loss and
// StepStats, and at the end every rank's parameters and per-replica
// layer state.
type poolRun struct {
	losses []float32
	stats  []StepStats
	params [][]float32
	states []core.ReplicaState
}

// runPool trains a fresh DES trainer for steps steps at GOMAXPROCS
// procs and records it.
func runPool(t *testing.T, procs int, cfg DistConfig, ds dataset.Dataset, steps int) (run poolRun) {
	t.Helper()
	withGOMAXPROCS(procs, func() {
		d, err := NewDistTrainer(cfg, statefulFactory(cfg.SubBatch, 3))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if want := min(procs, cfg.Nodes); len(d.models) != want {
			t.Fatalf("GOMAXPROCS %d, p = %d: %d shared models, want %d", procs, cfg.Nodes, len(d.models), want)
		}
		for it := 0; it < steps; it++ {
			d.LoadShards(ds, it)
			run.losses = append(run.losses, d.Step())
			st := d.LastStep
			st.Buckets = slices.Clone(st.Buckets)
			run.stats = append(run.stats, st)
		}
		if dv := d.ParamsDiverged(); dv != 0 {
			t.Fatalf("GOMAXPROCS %d: replicas diverged by %g", procs, dv)
		}
		for r := range d.Workers {
			w := d.replica(r)
			var flat []float32
			for _, p := range w.Net.Params() {
				flat = append(flat, p.Data.Data...)
			}
			run.params = append(run.params, flat)
			run.states = append(run.states, w.Net.ReplicaState())
		}
	})
	return run
}

// requireSameRun compares two recorded runs bit for bit.
func requireSameRun(t *testing.T, label string, want, got poolRun) {
	t.Helper()
	for it := range want.losses {
		if math.Float32bits(want.losses[it]) != math.Float32bits(got.losses[it]) {
			t.Fatalf("%s step %d: loss %v, want %v", label, it, got.losses[it], want.losses[it])
		}
		if !want.stats[it].Equal(got.stats[it]) {
			t.Fatalf("%s step %d: StepStats differ:\ngot  %+v\nwant %+v", label, it, got.stats[it], want.stats[it])
		}
	}
	for r := range want.params {
		for i, v := range want.params[r] {
			if w := got.params[r][i]; math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("%s: rank %d parameter element %d: %v, want %v", label, r, i, w, v)
			}
		}
		if !reflect.DeepEqual(want.states[r], got.states[r]) {
			t.Fatalf("%s: rank %d per-replica layer state differs", label, r)
		}
	}
}

// TestDESPoolSameAtEveryGOMAXPROCS: the p = 128 barrier, overlap and
// hierarchical arms give one result at GOMAXPROCS 1, 2 and 4 — losses,
// StepStats, every rank's parameters and per-replica layer state (the
// net has batch-norm statistics and a dropout cursor, which a rank run
// on the wrong model, or its state swapped to another rank, would
// change). Then a shrink at k = 2 and 4 that leaves a model without
// ranks: the pool drops that model, the survivors keep their homes, and
// the next steps follow the goroutine backend's private replicas bit
// for bit.
func TestDESPoolSameAtEveryGOMAXPROCS(t *testing.T) {
	const p, steps = 128, 3
	ds := dataset.NewClusters(2000, 3, 1, 4, 4, 0.4, 43)
	netw, mapping := hierNet(8)
	for _, arm := range []struct {
		name, alg string
		overlap   bool
	}{
		{"barrier", allreduce.NameRHD, false},
		{"overlap", allreduce.NameRHD, true},
		{"hier", allreduce.NameHierarchical, true},
	} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := desTwinConfig(p, netw, mapping, arm.alg, arm.overlap, BackendDES)
			cfg.BucketBytes = 128
			want := runPool(t, 1, cfg, ds, steps)
			for _, procs := range []int{2, 4} {
				requireSameRun(t, fmt.Sprintf("GOMAXPROCS %d", procs), want, runPool(t, procs, cfg, ds, steps))
			}
		})
	}

	for _, c := range []struct {
		procs  int
		failed []int
	}{
		{2, []int{1, 3, 5, 7}}, // every rank of model 1 of two
		{4, []int{1, 5}},       // every rank of model 1 of four
	} {
		t.Run(fmt.Sprintf("shrink_k%d", c.procs), func(t *testing.T) {
			withGOMAXPROCS(c.procs, func() {
				g, d := sharedTwins(t, 8, true)
				stepTwins(t, "before the shrink", g, d, ds, 0, 2)
				for _, tr := range []*DistTrainer{g, d} {
					if err := tr.Shrink(c.failed...); err != nil {
						t.Fatal(err)
					}
				}
				if want := c.procs - 1; len(d.models) != want {
					t.Fatalf("%d shared models after the shrink, want %d", len(d.models), want)
				}
				requireSameReplicas(t, "shrunk", g, d)
				stepTwins(t, "shrunk", g, d, ds, 2, 4)
				requireSameState(t, "in the end", g, d)
			})
		})
	}
}

// errTripped is what tripLayer panics with.
var errTripped = errors.New("trip layer: the poisoned shard reached it")

// tripValue marks the shard tripLayer panics on: no example of a
// cluster task comes near it.
const tripValue = 1e9

// tripLayer is a ReLU that panics when the first element of its input
// is tripValue — a pass failure that hits one chosen rank's shard.
type tripLayer struct{ *core.ReLULayer }

func (l tripLayer) Forward(bottoms, tops []*tensor.Tensor, phase core.Phase) {
	if bottoms[0].Data[0] == tripValue {
		panic(errTripped)
	}
	l.ReLULayer.Forward(bottoms, tops, phase)
}

// tripFactory is the test MLP behind a tripLayer on its input.
func tripFactory(batch, classes int) func() (*core.Net, map[string]*tensor.Tensor, error) {
	return func() (*core.Net, map[string]*tensor.Tensor, error) {
		net := core.NewNet("trip", "data", "label")
		net.AddLayers(
			tripLayer{core.NewReLU("trip", "data", "act", 0)},
			core.NewInnerProduct(core.InnerProductConfig{
				Name: "fc1", Bottom: "act", Top: "fc1", NumOutput: 16, BiasTerm: true}),
			core.NewReLU("relu", "fc1", "fc1", 0),
			core.NewInnerProduct(core.InnerProductConfig{
				Name: "fc2", Bottom: "fc1", Top: "fc2", NumOutput: classes, BiasTerm: true}),
			core.NewSoftmaxLoss("loss", "fc2", "label", "loss"),
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

// TestDESPoolPassPanic: at k = 4 one rank's pass panics on the pool.
// The victim shares its model with a rank that runs after it, which
// must still run. Only the victim's stream is poisoned, FailedRanks
// names it, Step re-panics with the pass's own panic value, and no pool
// goroutine outlives the step.
func TestDESPoolPassPanic(t *testing.T) {
	const p, procs, victim = 8, 4, 1
	ds := dataset.NewClusters(2000, 3, 1, 3, 3, 0.4, 53)
	netw, mapping := hierNet(4)
	for _, overlap := range []bool{false, true} {
		t.Run(fmt.Sprintf("overlap%v", overlap), func(t *testing.T) {
			withGOMAXPROCS(procs, func() {
				cfg := desTwinConfig(p, netw, mapping, allreduce.NameRHD, overlap, BackendDES)
				d, err := NewDistTrainer(cfg, tripFactory(cfg.SubBatch, 3))
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				if len(d.models) != procs {
					t.Fatalf("%d shared models, want %d", len(d.models), procs)
				}
				d.LoadShards(ds, 0)
				d.Workers[victim].Data.Data[0] = tripValue
				for i := range d.losses {
					d.losses[i] = float32(math.NaN())
				}
				before := runtime.NumGoroutine()
				got := func() (r any) {
					defer func() { r = recover() }()
					d.Step()
					return nil
				}()
				if got != errTripped {
					t.Fatalf("Step panicked with %v, want the pass's %v", got, errTripped)
				}
				if failed := d.FailedRanks(); !slices.Equal(failed, []int{victim}) {
					t.Fatalf("FailedRanks() = %v, want [%d]", failed, victim)
				}
				for r, l := range d.losses {
					if r != victim && math.IsNaN(float64(l)) {
						t.Fatalf("rank %d's pass did not run", r)
					}
				}
				if after := goroutinesSettle(before); after > before {
					t.Fatalf("goroutines grew across the failed step: %d -> %d", before, after)
				}
			})
		})
	}
}
