package train

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/obs"
	"swcaffe/internal/tensor"
	"swcaffe/internal/topology"
)

// distPath names one execution path of the trainer matrix: the backend
// and, with it, the node every pass runs on.
type distPath struct {
	name    string
	backend string
}

var distPaths = []distPath{
	{name: "pooled", backend: BackendGoroutine},
	{name: "des", backend: BackendDES},
}

// TestTracedRunBitIdentical is the tentpole golden: an enabled tracer
// observes the modeled times but must not perturb them. On both
// execution paths (pooled nodes, DES nodes) a traced
// trainer's losses, parameters and full StepStats must be
// bit-identical to an untraced twin — including under overlap with the
// hierarchical schedule, whose tracing records each rank's phase
// clocks. Run under -race by `make race`.
func TestTracedRunBitIdentical(t *testing.T) {
	const classes = 3
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	// A 2-node supernode size forces the p=4 hierarchical runs across
	// supernode links, so the leader-RHD phase is non-degenerate.
	smallQ := topology.Sunway()
	smallQ.SupernodeSize = 2
	cases := []struct {
		name   string
		mutate func(*DistConfig)
	}{
		{name: "barrier-rhd", mutate: func(c *DistConfig) {}},
		{name: "overlap-rhd", mutate: func(c *DistConfig) {
			c.Overlap = true
			c.BucketBytes = 8 << 10
		}},
		{name: "overlap-hier", mutate: func(c *DistConfig) {
			c.Overlap = true
			c.BucketBytes = 8 << 10
			c.AlgorithmName = allreduce.NameHierarchical
			c.Network = smallQ
		}},
	}
	for _, path := range distPaths {
		for _, tc := range cases {
			t.Run(path.name+"/"+tc.name, func(t *testing.T) {
				ds := dataset.NewClusters(2000, classes, 1, 8, 8, 0.4, 47)
				mk := func(tr *obs.Tracer) *DistTrainer {
					c := DistConfig{Nodes: 4, SubBatch: 8, Solver: cfg,
						Backend: path.backend, Tracer: tr}
					tc.mutate(&c)
					d, err := NewDistTrainer(c, deepFactory(8, classes))
					if err != nil {
						t.Fatal(err)
					}
					return d
				}
				tracer := obs.New()
				plain := mk(nil)
				traced := mk(tracer)
				defer plain.Close()
				defer traced.Close()
				for it := 0; it < 4; it++ {
					plain.LoadShards(ds, it)
					traced.LoadShards(ds, it)
					lp, lt := plain.Step(), traced.Step()
					if lp != lt {
						t.Fatalf("iter %d: traced loss %v != untraced %v", it, lt, lp)
					}
					if !plain.LastStep.Equal(traced.LastStep) {
						t.Fatalf("iter %d: traced StepStats %+v != untraced %+v",
							it, traced.LastStep, plain.LastStep)
					}
				}
				pp := plain.Workers[0].Net.LearnableParams()
				tp := traced.Workers[0].Net.LearnableParams()
				for i := range pp {
					if d := tensor.MaxDiff(pp[i].Data, tp[i].Data); d != 0 {
						t.Fatalf("param %d: traced run deviates by %g (must be bit-identical)", i, d)
					}
				}
				if tracer.Len() == 0 {
					t.Fatal("enabled tracer collected no events")
				}
				var buf strings.Builder
				if err := tracer.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				out := buf.String()
				if !strings.Contains(out, `"pass"`) {
					t.Fatal("traced run emitted no pass spans")
				}
				if tc.name == "overlap-hier" {
					for _, phase := range []string{"hier:intra-rs", "hier:leader-rhd", "hier:allgather"} {
						if !strings.Contains(out, phase) {
							t.Fatalf("hierarchical traced run missing %s phase spans", phase)
						}
					}
				}
				if strings.Contains(tc.name, "overlap") && !strings.Contains(out, "flush[") {
					t.Fatal("overlap traced run emitted no bucket flush spans")
				}
			})
		}
	}
}

// TestTracedHierarchicalLeavesNoPhaseHook: a traced hierarchical
// trainer takes its phase clocks through the call, so once it has
// stepped and closed the process-global fault seam is as it found it,
// empty — a hook left behind would keep every later hierarchical
// collective in the process writing into the closed trainer's engine.
// The phase spans must still carry the clocks the ranks recorded: some
// rank spends time in its intra-supernode reduce-scatter, and the
// pooled and DES backends draw the same spans.
func TestTracedHierarchicalLeavesNoPhaseHook(t *testing.T) {
	const classes = 3
	smallQ := topology.Sunway()
	smallQ.SupernodeSize = 2
	ds := dataset.NewClusters(500, classes, 1, 8, 8, 0.4, 47)
	type span struct {
		Name    string
		Pid     int
		Ts, Dur float64
	}
	var spans [][]span
	for _, path := range distPaths {
		tracer := obs.New()
		d, err := NewDistTrainer(DistConfig{Nodes: 4, SubBatch: 8, Solver: core.SolverConfig{BaseLR: 0.05},
			Backend: path.backend, Network: smallQ, AlgorithmName: allreduce.NameHierarchical,
			Overlap: true, BucketBytes: 8 << 10, Tracer: tracer}, deepFactory(8, classes))
		if err != nil {
			t.Fatal(err)
		}
		d.LoadShards(ds, 0)
		d.Step()
		d.Close()
		if h := allreduce.SetHierPhaseHook(nil); h != nil {
			t.Fatalf("%s: a traced trainer left a hierarchical phase hook installed", path.name)
		}
		var buf bytes.Buffer
		if err := tracer.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var trace struct{ TraceEvents []span }
		if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
			t.Fatal(err)
		}
		var hier []span
		busy := false
		for _, ev := range trace.TraceEvents {
			if strings.HasPrefix(ev.Name, "hier:") {
				hier = append(hier, ev)
				busy = busy || (ev.Name == "hier:intra-rs" && ev.Dur > 0)
			}
		}
		if !busy {
			t.Fatalf("%s: no rank spent time in its intra-RS phase: %+v", path.name, hier)
		}
		spans = append(spans, hier)
	}
	if !reflect.DeepEqual(spans[0], spans[1]) {
		t.Fatalf("phase spans differ across backends:\n%s %+v\n%s %+v",
			distPaths[0].name, spans[0], distPaths[1].name, spans[1])
	}
}

// TestStepStatsInvariants pins the arithmetic of the modeled step
// decomposition across every algorithm × path × mode combination:
// exposed communication can never exceed total communication, the step
// can never finish before its compute leg, the step must account for
// everything it exposed, and overlap must expose no more than the
// barrier's full collective.
func TestStepStatsInvariants(t *testing.T) {
	const classes, eps = 3, 1e-9
	cfg := core.SolverConfig{BaseLR: 0.05, Momentum: 0.9}
	algs := []string{"", allreduce.NameRing, allreduce.NameBinomial, allreduce.NameHierarchical}
	for _, path := range distPaths {
		for _, alg := range algs {
			name := alg
			if name == "" {
				name = "rhd-default"
			}
			t.Run(path.name+"/"+name, func(t *testing.T) {
				ds := dataset.NewClusters(2000, classes, 1, 8, 8, 0.4, 53)
				mk := func(overlap bool) *DistTrainer {
					d, err := NewDistTrainer(DistConfig{Nodes: 4, SubBatch: 8, Solver: cfg,
						AlgorithmName: alg, Overlap: overlap, BucketBytes: 8 << 10,
						Backend: path.backend}, deepFactory(8, classes))
					if err != nil {
						t.Fatal(err)
					}
					return d
				}
				barrier := mk(false)
				overlap := mk(true)
				defer barrier.Close()
				defer overlap.Close()
				for it := 0; it < 2; it++ {
					barrier.LoadShards(ds, it)
					overlap.LoadShards(ds, it)
					barrier.Step()
					overlap.Step()
					for _, d := range []*DistTrainer{barrier, overlap} {
						st := d.LastStep
						if st.Exposed > st.Comm+eps {
							t.Fatalf("iter %d: Exposed %g > Comm %g", it, st.Exposed, st.Comm)
						}
						if st.StepTime < st.Compute {
							t.Fatalf("iter %d: StepTime %g < Compute %g", it, st.StepTime, st.Compute)
						}
						if st.StepTime < st.Compute+st.Exposed-eps {
							t.Fatalf("iter %d: StepTime %g < Compute %g + Exposed %g",
								it, st.StepTime, st.Compute, st.Exposed)
						}
						if st.ExposedIO > st.IO+eps {
							t.Fatalf("iter %d: ExposedIO %g > IO %g", it, st.ExposedIO, st.IO)
						}
						if st.StepTime < st.Compute+st.Exposed+st.ExposedIO-eps {
							t.Fatalf("iter %d: StepTime %g < Compute %g + Exposed %g + ExposedIO %g",
								it, st.StepTime, st.Compute, st.Exposed, st.ExposedIO)
						}
						if len(st.Buckets) == 0 {
							t.Fatalf("iter %d: no per-bucket attribution", it)
						}
						var expSum float64
						for _, b := range st.Buckets {
							if b.Exposed < 0 || b.Comm < 0 || b.Priced < 0 {
								t.Fatalf("iter %d bucket %d: negative attribution %+v", it, b.Index, b)
							}
							if b.End < b.Start {
								t.Fatalf("iter %d bucket %d: flush window ends before it starts", it, b.Index)
							}
							expSum += b.Exposed
						}
						// The per-bucket exposures telescope to the step total.
						if diff := expSum - st.Exposed; diff > eps || diff < -eps {
							t.Fatalf("iter %d: bucket exposed sum %g != step Exposed %g",
								it, expSum, st.Exposed)
						}
					}
					if overlap.LastStep.Exposed > barrier.LastStep.Comm+eps {
						t.Fatalf("iter %d: overlap Exposed %g > barrier Comm %g",
							it, overlap.LastStep.Exposed, barrier.LastStep.Comm)
					}
					// The census counted traffic on every multi-node step.
					if barrier.LastStep.Msgs == 0 {
						t.Fatalf("iter %d: barrier step recorded no messages", it)
					}
				}
			})
		}
	}
}

// TestElasticTraceInstants: checkpoint/restore/shrink mark the
// cluster-level event lane when a tracer is attached.
func TestElasticTraceInstants(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(2000, classes, 1, 3, 3, 0.4, 67)
	tracer := obs.New()
	tr, err := NewDistTrainer(DistConfig{Nodes: 3, SubBatch: 4,
		Solver: core.SolverConfig{BaseLR: 0.05, Momentum: 0.9},
		Tracer: tracer}, mlpFactory(4, classes))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.LoadShards(ds, 0)
	tr.Step()
	ckpt := tr.Checkpoint()
	if err := tr.Shrink(2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, ev := range []string{`"checkpoint"`, `"shrink"`, `"restore"`} {
		if !strings.Contains(out, ev) {
			t.Fatalf("trace missing elastic instant %s", ev)
		}
	}
}
