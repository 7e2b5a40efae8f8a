package train

import (
	"fmt"
	"strings"
	"testing"

	"swcaffe/internal/collective"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/obs"
	"swcaffe/internal/pario"
	"swcaffe/internal/tensor"
)

// TestIOComposition pins the arithmetic of the I/O stage: the cold
// first read is fully exposed, steady-state exposure is the read minus
// the step's no-I/O makespan, the trainer-level accumulators telescope
// over the per-step values, and a traced run emits the per-batch read
// spans on the io lane.
func TestIOComposition(t *testing.T) {
	const classes, eps = 3, 1e-12
	ds := dataset.NewClusters(2000, classes, 1, 8, 8, 0.4, 67)
	tracer := obs.New()
	d, err := NewDistTrainer(DistConfig{
		Nodes: 4, SubBatch: 8,
		Solver:  core.SolverConfig{BaseLR: 0.05, Momentum: 0.9},
		Overlap: true, BucketBytes: 8 << 10, Tracer: tracer,
		IO: &IOConfig{Storage: pario.DefaultTaihuLight(1), BatchBytes: 256 << 20},
	}, deepFactory(8, classes))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var wantIO, wantExposed float64
	for it := 0; it < 3; it++ {
		d.LoadShards(ds, it)
		d.Step()
		st := d.LastStep
		if st.IO <= 0 {
			t.Fatalf("iter %d: no I/O priced: %+v", it, st)
		}
		noIO := st.StepTime - st.ExposedIO
		if it == 0 {
			if st.ExposedIO != st.IO {
				t.Fatalf("cold first read must be fully exposed: ExposedIO %g != IO %g", st.ExposedIO, st.IO)
			}
		} else {
			want := st.IO - noIO
			if want < 0 {
				want = 0
			}
			if diff := st.ExposedIO - want; diff > eps || diff < -eps {
				t.Fatalf("iter %d: ExposedIO %g, want max(0, IO %g - window %g) = %g",
					it, st.ExposedIO, st.IO, noIO, want)
			}
		}
		wantIO += st.IO
		wantExposed += st.ExposedIO
	}
	if d.IOTime != wantIO || d.ExposedIOTime != wantExposed {
		t.Fatalf("accumulators IOTime %g / ExposedIOTime %g, want %g / %g",
			d.IOTime, d.ExposedIOTime, wantIO, wantExposed)
	}
	// 256MB per shard over one stripe with 4 concurrent readers must be
	// slow enough to stay partially exposed at steady state too.
	if d.LastStep.ExposedIO <= 0 {
		t.Fatalf("calibration: steady-state read fully hidden, ExposedIO = %g", d.LastStep.ExposedIO)
	}
	var buf strings.Builder
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"read"`) || !strings.Contains(out, `"io"`) {
		t.Fatal("traced I/O run emitted no read spans on the io lane")
	}
}

// TestDESBackendBitIdenticalWithIO extends the backend hex-identity
// golden to I/O-enabled runs: because the read charge is a pure
// analytic function of (storage, readers, bytes), the DES backend must
// reproduce the goroutine backend's StepStats — now including IO and
// ExposedIO — bit for bit. The DES backend loads its shards on the pass
// pool, which the race-enabled CI run of this test exercises.
func TestDESBackendBitIdenticalWithIO(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(2000, classes, 1, 3, 3, 0.4, 71)
	shapes := []struct{ p, q int }{{4, 2}, {8, 4}}
	if !testing.Short() {
		shapes = append(shapes, struct{ p, q int }{128, 8})
	}
	for _, sh := range shapes {
		for _, auto := range []bool{false, true} {
			t.Run(fmt.Sprintf("p%d_q%d_auto%v", sh.p, sh.q, auto), func(t *testing.T) {
				netw, mapping := hierNet(sh.q)
				run := func(backend string) ([]float32, StepStats, *DistTrainer) {
					cfg := desTwinConfig(sh.p, netw, mapping, collective.NameAuto, true, backend)
					cfg.IO = &IOConfig{
						Storage: pario.DefaultTaihuLight(1), BatchBytes: 1 << 20, AutoStripe: auto,
					}
					d, err := NewDistTrainer(cfg, mlpFactory(cfg.SubBatch, classes))
					if err != nil {
						t.Fatal(err)
					}
					losses := make([]float32, 2)
					for it := range losses {
						d.LoadShards(ds, it)
						losses[it] = d.Step()
					}
					return losses, d.LastStep, d
				}
				lossG, statsG, dG := run(BackendGoroutine)
				defer dG.Close()
				lossD, statsD, dD := run(BackendDES)
				defer dD.Close()
				for it := range lossG {
					if lossG[it] != lossD[it] {
						t.Fatalf("step %d loss: goroutine %v des %v", it, lossG[it], lossD[it])
					}
				}
				if statsG.IO <= 0 {
					t.Fatalf("I/O-enabled run priced no read: %+v", statsG)
				}
				if !statsG.Equal(statsD) {
					t.Fatalf("StepStats differ:\ngoroutine %+v\ndes       %+v", statsG, statsD)
				}
				pg := dG.Workers[0].Net.LearnableParams()
				pd := dD.Workers[0].Net.LearnableParams()
				for i := range pg {
					if d := tensor.MaxDiff(pg[i].Data, pd[i].Data); d != 0 {
						t.Fatalf("param %d: backends deviate by %g (must be bit-identical)", i, d)
					}
				}
				gs, _, _ := dG.IOStorage()
				dsn, _, _ := dD.IOStorage()
				if gs.StripeCount != dsn.StripeCount {
					t.Fatalf("advisor pick differs: goroutine %d stripes, des %d", gs.StripeCount, dsn.StripeCount)
				}
			})
		}
	}
}

// TestIOSmokeP128 is the CI smoke of the stripe advisor's value at the
// paper's contention point: at p = 128 concurrent readers a
// single-stripe layout must leave read time exposed past the step, and
// the advisor's pick must hide it completely. The shard size is derived
// from the run's own modeled windows (a probe trainer measures them),
// so the assertion is about the advisor, not about a lucky constant.
func TestIOSmokeP128(t *testing.T) {
	const classes, iters = 3, 2
	ds := dataset.NewClusters(8192, classes, 1, 8, 8, 0.4, 77)
	netw, mapping := hierNet(8)
	mk := func(io *IOConfig) *DistTrainer {
		d, err := NewDistTrainer(DistConfig{
			Nodes: 128, SubBatch: 4,
			Solver:  core.SolverConfig{BaseLR: 0.05, Momentum: 0.9},
			Network: netw, Mapping: mapping,
			Overlap: true, BucketBytes: 8 << 10, AutoBucket: false, IO: io,
		}, deepFactory(4, classes))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	run := func(d *DistTrainer) StepStats {
		defer d.Close()
		for it := 0; it < iters; it++ {
			d.LoadShards(ds, it)
			d.Step()
		}
		return d.LastStep
	}

	// Probe: the no-I/O step makespan is the prefetch hide window, the
	// priced compute leg is the advisor's (conservative) window.
	probe := mk(nil)
	window := run(probe)
	computeEnd := window.Compute
	// Size the shard so one stripe (128 readers on one array, base rate
	// bytes·p/BW) overshoots the hide window by 4x, capped so that the
	// widest layout (32 stripes: 8 readers, 2 arrays) fits inside half
	// the advisor's compute window. Infeasible only if exposed comm
	// dwarfs compute 16:1, which the overlap engine rules out here.
	base := pario.DefaultTaihuLight(1)
	bytes := int64(4 * window.StepTime * base.ArrayBandwidth / 128)
	if cap := int64(computeEnd / 2 * base.ArrayBandwidth / 8 * 2); bytes > cap {
		bytes = cap
	}
	if got := base.ReadTime(128, bytes); got <= window.StepTime {
		t.Fatalf("calibration: single-stripe read %g must exceed hide window %g", got, window.StepTime)
	}

	flat := run(mk(&IOConfig{Storage: base, BatchBytes: bytes}))
	if flat.ExposedIO <= 0 {
		t.Fatalf("stripe=1 at p=128: read not exposed: %+v", flat)
	}
	advised := mk(&IOConfig{Storage: base, BatchBytes: bytes, AutoStripe: true})
	st := run(advised)
	pick, cands := advised.IOPlan()
	if pick == nil || len(cands) == 0 {
		t.Fatal("AutoStripe resolved no plan")
	}
	if pick.StripeCount <= 1 {
		t.Fatalf("advisor kept stripes=%d under p=128 contention", pick.StripeCount)
	}
	if st.ExposedIO != 0 {
		t.Fatalf("advisor pick (stripes=%d) left %g s exposed, want 0", pick.StripeCount, st.ExposedIO)
	}
	if st.IO >= flat.IO {
		t.Fatalf("advisor pick read %g not faster than single-stripe %g", st.IO, flat.IO)
	}
}

// TestCGTrainerReadIsPure: the one-node trainer prices its read once,
// at AttachInput, so every step's LastRead is the single-reader price
// of the four quarter shards bit for bit, LastExposedRead is the shared
// exposed-read rule against the previous step's node makespan (the
// whole read on the cold first step), and the trainer's accumulators
// sum the per-step values.
func TestCGTrainerReadIsPure(t *testing.T) {
	const quarter, classes = 4, 3
	ds := dataset.NewClusters(1000, classes, 1, 3, 3, 0.4, 14)
	tr, err := NewCGTrainer(mlpFactory(quarter, classes), core.SolverConfig{BaseLR: 0.05, Momentum: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	storage := pario.DefaultTaihuLight(1)
	tr.AttachInput(ds, storage)
	shard := dataset.Shard{DS: ds, Rank: 0, Ranks: 4, Batch: quarter}
	read := storage.ReadTime(1, 4*shard.Bytes())
	var readSum, exposedSum float64
	for it := 0; it < 20; it++ {
		for i, w := range tr.CGs {
			dataset.Batch(ds, (it*4+i)*quarter, w.Data, w.Labels)
		}
		window := tr.lastSpan
		tr.Step()
		if tr.LastRead != read {
			t.Fatalf("step %d: LastRead %v, want ReadTime(1, 4×shard) = %v bit for bit", it, tr.LastRead, read)
		}
		exposed := read
		if it > 0 {
			exposed = pario.ExposedTime(read, window)
		}
		if tr.LastExposedRead != exposed {
			t.Fatalf("step %d: LastExposedRead %v, want %v (window %v)", it, tr.LastExposedRead, exposed, window)
		}
		readSum += tr.LastRead
		exposedSum += tr.LastExposedRead
	}
	if tr.ReadTime != readSum || tr.ExposedReadTime != exposedSum {
		t.Fatalf("accumulators %g/%g, want %g/%g", tr.ReadTime, tr.ExposedReadTime, readSum, exposedSum)
	}
}

// TestShrinkReplansIO pins the elastic interaction: Shrink re-resolves
// the read model at p', so the reader count — and an AutoStripe advisor pick — track the
// surviving world.
func TestShrinkReplansIO(t *testing.T) {
	const classes = 3
	ds := dataset.NewClusters(2000, classes, 1, 3, 3, 0.4, 83)
	d, err := NewDistTrainer(DistConfig{
		Nodes: 4, SubBatch: 4,
		Solver: core.SolverConfig{BaseLR: 0.05, Momentum: 0.9},
		IO:     &IOConfig{Storage: pario.DefaultTaihuLight(1), BatchBytes: 1 << 20},
	}, mlpFactory(4, classes))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.LoadShards(ds, 0)
	d.Step()
	if _, readers, _ := d.IOStorage(); readers != 4 {
		t.Fatalf("readers at p=4: got %d", readers)
	}
	ckpt := d.Checkpoint()
	if err := d.Shrink(3); err != nil {
		t.Fatal(err)
	}
	if err := d.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	d.LoadShards(ds, 1)
	d.Step()
	if _, readers, _ := d.IOStorage(); readers != 3 {
		t.Fatalf("readers after shrink to p=3: got %d", readers)
	}
	if d.LastStep.IO <= 0 {
		t.Fatal("post-shrink step priced no I/O")
	}
}

// TestBadStorageRejected: NewDistTrainer validates the resolved
// storage layout, so a stripe count outside [1, 32] on the 32-array
// store is an error instead of a silently priced layout.
func TestBadStorageRejected(t *testing.T) {
	for _, io := range []*IOConfig{
		{Storage: pario.DefaultTaihuLight(64)},
		{Storage: pario.Config{StripeCount: -3}},
	} {
		d, err := NewDistTrainer(DistConfig{Nodes: 2, SubBatch: 2, IO: io}, mlpFactory(2, 3))
		if err == nil {
			d.Close()
			t.Fatalf("storage %+v accepted", io.Storage)
		}
		if !strings.Contains(err.Error(), "stripe count") {
			t.Fatalf("storage %+v: unexpected error %v", io.Storage, err)
		}
	}
	d, err := NewDistTrainer(DistConfig{Nodes: 2, SubBatch: 2,
		IO: &IOConfig{Storage: pario.DefaultTaihuLight(64), AutoStripe: true}}, mlpFactory(2, 3))
	if err != nil {
		t.Fatalf("the stripe advisor picks its own count, yet: %v", err)
	}
	d.Close()
}
