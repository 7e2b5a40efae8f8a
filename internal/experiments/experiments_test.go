package experiments

import (
	"io"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"swcaffe/internal/sw26010"
	"swcaffe/internal/swdnn"
	"swcaffe/internal/train"
)

func TestTable1MatchesPaper(t *testing.T) {
	specs := Table1(io.Discard)
	if len(specs) != 3 {
		t.Fatalf("%d rows", len(specs))
	}
	sw := specs[0]
	if sw.FloatTFlops != 3.02 || sw.DoubleTFlops != 3.02 {
		t.Fatalf("SW26010 flops row wrong: %+v", sw)
	}
	// The comparison's point: SW has the lowest bandwidth but the same
	// double-precision class as KNL.
	if !(specs[0].BandwidthGB < specs[1].BandwidthGB && specs[1].BandwidthGB < specs[2].BandwidthGB) {
		t.Fatal("bandwidth ordering SW < K40m < KNL violated")
	}
}

func TestFigure2Shapes(t *testing.T) {
	pts := Figure2(io.Discard)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	var maxBW float64
	for _, p := range pts {
		if p.GBps <= 0 {
			t.Fatalf("non-positive bandwidth: %+v", p)
		}
		if p.GBps > maxBW {
			maxBW = p.GBps
		}
	}
	// Saturation near the measured 28 GB/s.
	if maxBW < 24 || maxBW > 28.5 {
		t.Fatalf("peak DMA bandwidth %g, want ~28", maxBW)
	}
	// 64-CPE curves dominate 1-CPE curves pointwise.
	for _, p := range pts {
		if p.CPEs != 1 {
			continue
		}
		for _, q := range pts {
			if q.Mode == p.Mode && q.Strided == p.Strided && q.SizeOrBlk == p.SizeOrBlk && q.CPEs == 64 {
				if q.GBps < p.GBps {
					t.Fatalf("64 CPEs slower than 1 at %+v", p)
				}
			}
		}
	}
}

func TestTable2WinnersMatchPaper(t *testing.T) {
	rows := Table2(io.Discard)
	if len(rows) != 13 {
		t.Fatalf("%d rows, want 13", len(rows))
	}
	// Paper Table II forward winners: implicit for 1_2, 2_1, 2_2 and
	// 5_x; explicit for 1_1 (only option), 3_x and 4_x.
	implicitWins := map[string]bool{
		"1_2": true, "2_1": true, "2_2": true,
		"5_1": true, "5_2": true, "5_3": true,
	}
	for _, r := range rows {
		want := "explicit"
		if implicitWins[r.Name] {
			want = "implicit"
		}
		if r.Fwd.Best.Name != want {
			t.Errorf("%s: forward winner %s, paper says %s", r.Name, r.Fwd.Best.Name, want)
		}
	}
	// Implicit infeasibility pattern: 1_1 forward; 1_1/1_2/2_1 backward.
	for _, r := range rows {
		switch r.Name {
		case "1_1":
			if r.Fwd.Implicit.Feasible {
				t.Error("1_1 forward implicit should be infeasible")
			}
		case "1_2", "2_1":
			if !r.Fwd.Implicit.Feasible {
				t.Errorf("%s forward implicit should be feasible", r.Name)
			}
			if r.BwdW.Implicit.Feasible || r.BwdI.Implicit.Feasible {
				t.Errorf("%s backward implicit should be infeasible", r.Name)
			}
		case "2_2":
			if !r.BwdW.Implicit.Feasible {
				t.Error("2_2 backward implicit should be feasible")
			}
		}
	}
}

func TestFigure6Claims(t *testing.T) {
	pts := Figure6(io.Discard)
	// Locate the largest-message bandwidth samples.
	var swBig, swOverBig, ibBig float64
	for _, p := range pts {
		if p.Bytes == 4<<20 && p.LatencyMS == 0 {
			switch {
			case p.Network == "SW" && !p.OverSub:
				swBig = p.GBps
			case p.Network == "SW" && p.OverSub:
				swOverBig = p.GBps
			case p.Network == "IB":
				ibBig = p.GBps
			}
		}
	}
	if swBig <= ibBig {
		t.Fatalf("SW peak (%g) should match-or-beat Infiniband (%g) at large messages", swBig, ibBig)
	}
	if r := swBig / swOverBig; r < 3 || r > 4.6 {
		t.Fatalf("over-subscription ratio %g, want ~4", r)
	}
	// Latency: SW worse than IB for messages > 2 KB.
	var swLat, ibLat float64
	for _, p := range pts {
		if p.Bytes == 32768 && p.LatencyMS > 0 {
			if p.Network == "SW" {
				swLat = p.LatencyMS
			} else {
				ibLat = p.LatencyMS
			}
		}
	}
	if swLat <= ibLat {
		t.Fatalf("SW latency (%g) should exceed IB (%g) beyond 2KB", swLat, ibLat)
	}
}

func TestFigure7Improvement(t *testing.T) {
	res := Figure7(io.Discard, 100e6)
	if res.ImprovedAnalytic >= res.OriginalAnalytic {
		t.Fatal("improved all-reduce should be analytically faster")
	}
	if res.ImprovedSimulated >= res.OriginalSimulated {
		t.Fatal("improved all-reduce should simulate faster")
	}
	// Analytic and simulated must agree closely (they share the model).
	for _, pair := range [][2]float64{
		{res.OriginalAnalytic, res.OriginalSimulated},
		{res.ImprovedAnalytic, res.ImprovedSimulated},
	} {
		rel := (pair[0] - pair[1]) / pair[0]
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.1 {
			t.Fatalf("analytic %g vs simulated %g disagree", pair[0], pair[1])
		}
	}
}

func TestFigures89Claims(t *testing.T) {
	for _, fig := range []struct {
		name string
		run  func(io.Writer) []LayerTiming
	}{{"fig8", Figure8}, {"fig9", Figure9}} {
		rows := fig.run(io.Discard)
		if len(rows) == 0 {
			t.Fatalf("%s: empty", fig.name)
		}
		// Paper claim 1: the first convolution is much less efficient
		// on SW26010 than on the GPU relative to deeper convolutions.
		var firstRatio, deepRatio float64
		deepCount := 0
		for i, r := range rows {
			if r.Kind != "Convolution" {
				continue
			}
			ratio := r.SW.Forward / r.GPU.Forward
			if firstRatio == 0 {
				firstRatio = ratio
			} else if i > len(rows)/2 {
				deepRatio += ratio
				deepCount++
			}
		}
		if deepCount == 0 {
			t.Fatalf("%s: no deep convolutions found", fig.name)
		}
		deepRatio /= float64(deepCount)
		if firstRatio < 1.2*deepRatio {
			t.Errorf("%s: first conv SW/GPU ratio %.1f should exceed deep-layer ratio %.1f",
				fig.name, firstRatio, deepRatio)
		}
		// Paper claim 2: bandwidth-bound layers (pooling) take
		// proportionally more on SW than on the GPU.
		for _, r := range rows {
			if r.Kind == "Pooling" && r.SW.Forward <= r.GPU.Forward {
				t.Errorf("%s: pooling %s should be slower on SW (SW %g vs GPU %g)",
					fig.name, r.Layer, r.SW.Forward, r.GPU.Forward)
			}
		}
	}
}

func TestTable3MatchesPaperBands(t *testing.T) {
	rows := Table3(io.Discard)
	want := map[string]struct {
		sw       float64
		swOverNV float64
	}{
		"alexnet-bn": {94.17, 1.19},
		"vgg16":      {6.21, 0.45},
		"vgg19":      {5.52, 0.49},
		"resnet50":   {5.56, 0.21},
		"googlenet":  {14.97, 0.23},
	}
	for _, r := range rows {
		w, ok := want[r.Network]
		if !ok {
			t.Fatalf("unexpected network %s", r.Network)
		}
		if ratio := r.SW / w.sw; ratio < 0.75 || ratio > 1.35 {
			t.Errorf("%s: SW %.2f img/s vs paper %.2f (ratio %.2f)", r.Network, r.SW, w.sw, ratio)
		}
		if rel := (r.SW / r.GPU) / w.swOverNV; rel < 0.6 || rel > 1.6 {
			t.Errorf("%s: SW/NV %.2f vs paper %.2f", r.Network, r.SW/r.GPU, w.swOverNV)
		}
		if r.SW <= r.CPU {
			t.Errorf("%s: SW must beat the CPU (%g vs %g)", r.Network, r.SW, r.CPU)
		}
	}
	// Paper ordering: only AlexNet beats the K40m on SW26010.
	for _, r := range rows {
		beats := r.SW > r.GPU
		if (r.Network == "alexnet-bn") != beats {
			t.Errorf("%s: SW-beats-GPU = %v, paper says only AlexNet does", r.Network, beats)
		}
	}
}

func TestFigure10And11Claims(t *testing.T) {
	f10 := Figure10(io.Discard)
	if len(f10) != 5 {
		t.Fatalf("%d series", len(f10))
	}
	for _, s := range f10 {
		last := s.Points[len(s.Points)-1]
		if last.Nodes != 1024 {
			t.Fatal("sweep should end at 1024 nodes")
		}
		if last.Speedup < 300 || last.Speedup > 1024 {
			t.Errorf("%s B=%d: 1024-node speedup %.0f out of band", s.Model, s.SubBatch, last.Speedup)
		}
		// Speedup grows monotonically with nodes.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Speedup <= s.Points[i-1].Speedup {
				t.Errorf("%s B=%d: speedup not monotone at p=%d", s.Model, s.SubBatch, s.Points[i].Nodes)
			}
		}
	}
	// Larger sub-batches scale better (AlexNet ordering of Fig. 10).
	byBatch := map[int]float64{}
	for _, s := range f10 {
		if s.Model == "alexnet-bn" {
			byBatch[s.SubBatch] = s.Points[len(s.Points)-1].Speedup
		}
	}
	if !(byBatch[256] > byBatch[128] && byBatch[128] > byBatch[64]) {
		t.Errorf("AlexNet speedup ordering by sub-batch violated: %+v", byBatch)
	}

	f11 := Figure11(io.Discard)
	for _, s := range f11 {
		last := s.Points[len(s.Points)-1]
		if s.Model == "resnet50" && last.CommFraction > 0.2 {
			t.Errorf("ResNet comm share %.1f%% too high", last.CommFraction*100)
		}
		if s.Model == "alexnet-bn" && s.SubBatch == 64 && last.CommFraction < 0.4 {
			t.Errorf("AlexNet B=64 comm share %.1f%% too low (paper: 60%%)", last.CommFraction*100)
		}
	}
}

// TestFunctionalScalingClaims: the measured (executed, not priced)
// cluster-runtime sweep must hold the paper's qualitative claims —
// the bucketed overlap hides communication the barrier exposes, and
// the saving persists at every node count.
func TestFunctionalScalingClaims(t *testing.T) {
	rows := FunctionalScaling(io.Discard)
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Backend != train.BackendDES || last.Nodes != 1024 {
		t.Fatalf("sweep should end with the discrete-event p=1024 point, got %+v", last)
	}
	if g := rows[5]; g.Backend == train.BackendDES || g.Nodes != 128 {
		t.Fatalf("goroutine tiers should end with the pooled p=128 point, got %+v", g)
	}
	for _, r := range rows {
		b, o := r.Barrier.Stats, r.Overlap.Stats
		if b.Compute <= 0 || b.Comm <= 0 || b.StepTime <= 0 {
			t.Fatalf("p=%d: degenerate barrier stats %+v", r.Nodes, b)
		}
		if b.Exposed != b.Comm {
			t.Errorf("p=%d: barrier must expose its full all-reduce (%g != %g)", r.Nodes, b.Exposed, b.Comm)
		}
		if !(o.Exposed < b.Exposed) {
			t.Errorf("p=%d: overlap exposed %g not below barrier %g", r.Nodes, o.Exposed, b.Exposed)
		}
		if !(o.StepTime < b.StepTime) {
			t.Errorf("p=%d: overlap step %g not below barrier %g", r.Nodes, o.StepTime, b.StepTime)
		}
		if b.Compute != o.Compute {
			t.Errorf("p=%d: modeled compute differs between paths: %g vs %g", r.Nodes, b.Compute, o.Compute)
		}
		// The hierarchical arm executes on its own q=2 adjacent network
		// (different comm regime, same priced compute) and must overlap:
		// exposure strictly below its own summed collective time.
		h := r.Hier.Stats
		if h.Compute != b.Compute {
			t.Errorf("p=%d: hierarchical arm compute %g != barrier %g", r.Nodes, h.Compute, b.Compute)
		}
		if r.Nodes > 1 && (h.Comm <= 0 || h.StepTime <= 0) {
			t.Fatalf("p=%d: degenerate hierarchical stats %+v", r.Nodes, h)
		}
		if !(h.Exposed < h.Comm) {
			t.Errorf("p=%d: hierarchical overlap exposed %g not below its comm %g", r.Nodes, h.Exposed, h.Comm)
		}
	}
	// Communication share of the measured step grows with scale.
	for i := 1; i < len(rows); i++ {
		if rows[i].Barrier.CommShare <= rows[i-1].Barrier.CommShare {
			t.Errorf("measured comm share should grow with p: %+v vs %+v", rows[i-1].Barrier, rows[i].Barrier)
		}
	}
}

func TestIOStripingClaims(t *testing.T) {
	rows := IOStriping(io.Discard)
	find := func(stripes, procs int) IOStripingRow {
		for _, r := range rows {
			if r.Stripes == stripes && r.Procs == procs {
				return r
			}
		}
		t.Fatalf("row %d/%d missing", stripes, procs)
		return IOStripingRow{}
	}
	if single, striped := find(1, 1024), find(32, 1024); striped.ReadTime >= single.ReadTime {
		t.Fatal("32-way striping should beat single-split at 1024 processes")
	}
	// Single-split aggregate saturates at ~one array.
	if agg := find(1, 1024).AggregateGB; agg > 2.1 {
		t.Fatalf("single-split aggregate %g GB/s exceeds one array", agg)
	}
}

func TestGEMMAblationClaims(t *testing.T) {
	rows := GEMMAblation(io.Discard)
	for _, r := range rows {
		if r.NoRLCTime <= r.PlanTime {
			t.Errorf("n=%d: removing register communication should hurt", r.Dim)
		}
	}
	// Large square GEMM sustains a healthy fraction of the 742 GFlops
	// peak (paper ref [8] reaches ~88-95%; our blocked plan with
	// conversions lands lower but must clear 50%).
	last := rows[len(rows)-1]
	if frac := last.PlanGflops * 1e9 / sw26010.CGPeakFlops; frac < 0.5 || frac > 1 {
		t.Errorf("large GEMM sustains %.0f%% of peak", frac*100)
	}
}

func TestPackAblationClaims(t *testing.T) {
	rows := PackAblation(io.Discard)
	for _, r := range rows {
		if r.Packed > r.PerLayer {
			t.Errorf("%s p=%d: packing should never hurt", r.Model, r.Nodes)
		}
	}
}

func TestAllreduceAblationClaims(t *testing.T) {
	rows := AllreduceAblation(io.Discard)
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.Algorithm+string(rune(r.Nodes))+string(rune(int(r.Bytes/1e3)))] = r.Time
	}
	// Spot claims: at p=1024 and 232.6 MB, round-robin RHD wins.
	var ring, rr float64
	for _, r := range rows {
		if r.Nodes == 1024 && r.Bytes > 2e8 {
			switch r.Algorithm {
			case "ring":
				ring = r.Time
			case "rhd-roundrobin":
				rr = r.Time
			}
		}
	}
	if rr >= ring {
		t.Fatal("topology-aware RHD should beat the ring at scale")
	}
}

func TestWriteEverythingRendersText(t *testing.T) {
	var sb strings.Builder
	Table1(&sb)
	Table2(&sb)
	Figure7(&sb, 1e6)
	out := sb.String()
	for _, want := range []string{"Table I", "Table II", "Figure 7", "SW26010"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestBNAblationClaims(t *testing.T) {
	rows := BNAblation(io.Discard)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.LRN <= 0 || r.BN <= 0 {
			t.Fatalf("%s: non-positive iteration time", r.Device)
		}
		// The refinement is performance-neutral-to-positive (the paper
		// adopts it for accuracy parity, not speed): allow ±15%.
		if ratio := r.BN / r.LRN; ratio < 0.7 || ratio > 1.15 {
			t.Errorf("%s: BN/LRN ratio %.2f out of band", r.Device, ratio)
		}
	}
}

func TestSumAblationClaims(t *testing.T) {
	rows := SumAblation(io.Discard)
	last := rows[len(rows)-1]
	if last.CPETime >= last.MPETime {
		t.Fatal("CPE summation must win on gradient-scale arrays")
	}
	first := rows[0]
	if first.MPETime >= first.CPETime {
		t.Fatal("MPE should win on tiny arrays (the packing motivation)")
	}
}

// TestSumAblationFixture: the mesh and vectors SumAblation keeps
// between calls must not show in its rows — repeated and concurrent
// calls (run under -race) agree, and every CPE time is bit-equal to
// the kernel on a fresh CoreGroup with fresh vectors of that length.
func TestSumAblationFixture(t *testing.T) {
	want := SumAblation(io.Discard)
	for i := 0; i < 2; i++ {
		if got := SumAblation(io.Discard); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: rows %+v, first call %+v", i+2, got, want)
		}
	}
	var got [2][]SumRow
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = SumAblation(io.Discard)
		}()
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("concurrent call %d: rows %+v, want %+v", g, got[g], want)
		}
	}
	for _, r := range want {
		cg := sw26010.NewCoreGroup(nil)
		fresh := swdnn.SumRun(cg, make([]float32, r.Elems), make([]float32, r.Elems))
		cg.Close()
		if math.Float64bits(r.CPETime) != math.Float64bits(fresh) {
			t.Errorf("n=%d: CPETime %x, fresh CoreGroup %x", r.Elems, math.Float64bits(r.CPETime), math.Float64bits(fresh))
		}
	}
}

func TestMappingAblationClaims(t *testing.T) {
	rows := MappingAblation(io.Discard)
	for _, r := range rows {
		if r.Topo >= r.Adjacent {
			t.Errorf("%s B=%d p=%d: round-robin (%g) should beat adjacent (%g)",
				r.Model, r.SubBatch, r.Nodes, r.Topo, r.Adjacent)
		}
	}
	// The benefit grows with node count for a fixed model.
	var s512, s1024 float64
	for _, r := range rows {
		if r.Model == "alexnet-bn" {
			if r.Nodes == 512 {
				s512 = r.Adjacent / r.Topo
			} else if r.Nodes == 1024 {
				s1024 = r.Adjacent / r.Topo
			}
		}
	}
	if s1024 <= s512 {
		t.Errorf("mapping benefit should grow with scale: %.2fx @512 vs %.2fx @1024", s512, s1024)
	}
}

func TestBatchSweepClaims(t *testing.T) {
	rows := BatchSweep(io.Discard)
	// Within each model: throughput non-decreasing and communication
	// share strictly decreasing as the per-node batch grows.
	byModel := map[string][]BatchRow{}
	for _, r := range rows {
		byModel[r.Model] = append(byModel[r.Model], r)
	}
	for model, rs := range byModel {
		for i := 1; i < len(rs); i++ {
			if rs[i].ImgPerSec < rs[i-1].ImgPerSec*0.98 {
				t.Errorf("%s: throughput dropped at sub-batch %d", model, rs[i].SubBatch)
			}
			if rs[i].CommFrac >= rs[i-1].CommFrac {
				t.Errorf("%s: comm share should shrink with batch at %d", model, rs[i].SubBatch)
			}
		}
	}
}

// TestParallelGeneratorsDeterministic: the fanned-out generators must
// render byte-identical output on every run (rows are computed
// concurrently but printed in index order), and the parallel Table II
// rows must equal a serial re-evaluation of the same plans.
func TestParallelGeneratorsDeterministic(t *testing.T) {
	render := map[string]func(io.Writer){
		"table2":   func(w io.Writer) { Table2(w) },
		"table3":   func(w io.Writer) { Table3(w) },
		"figure8":  func(w io.Writer) { Figure8(w) },
		"figure10": func(w io.Writer) { Figure10(w) },
		"figure11": func(w io.Writer) { Figure11(w) },
		"gemm":     func(w io.Writer) { GEMMAblation(w) },
		"batch":    func(w io.Writer) { BatchSweep(w) },
	}
	for name, gen := range render {
		var first strings.Builder
		gen(&first)
		if first.Len() == 0 {
			t.Fatalf("%s rendered nothing", name)
		}
		for trial := 0; trial < 3; trial++ {
			var again strings.Builder
			gen(&again)
			if first.String() != again.String() {
				t.Fatalf("%s: output not byte-identical across runs", name)
			}
		}
	}

	// Cross-check the concurrent Table II rows against serial queries.
	hw := sw26010.Default()
	rows := Table2(io.Discard)
	layers := VGG16ConvLayers(128)
	if len(rows) != len(layers) {
		t.Fatalf("Table2 returned %d rows for %d layers", len(rows), len(layers))
	}
	for i, l := range layers {
		if rows[i].Name != l.Name {
			t.Fatalf("row %d out of order: %s != %s", i, rows[i].Name, l.Name)
		}
		imp, exp, best := swdnn.ConvPlans(hw, l.Shape, swdnn.Forward)
		if rows[i].Fwd.Implicit != imp || rows[i].Fwd.Explicit != exp || rows[i].Fwd.Best.Name != best.Name {
			t.Fatalf("layer %s: parallel rows diverge from serial plans", l.Name)
		}
	}
}
