package swdnn

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"swcaffe/internal/sw26010"
)

func randConvShape(rng *rand.Rand) ConvShape {
	k := []int{1, 3, 5}[rng.Intn(3)]
	s := ConvShape{
		B:  1,
		Ni: rng.Intn(4) + 1,
		Ri: rng.Intn(8) + k,
		Ci: rng.Intn(8) + k,
		No: rng.Intn(6) + 1,
		K:  k,
		S:  rng.Intn(2) + 1,
		P:  rng.Intn(k),
	}
	return s
}

func TestIm2colMatchesDirectConv(t *testing.T) {
	// Lowering + GEMM must equal the direct convolution for arbitrary
	// shapes (the fundamental identity of the explicit plan).
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		s := randConvShape(rng)
		ro, co := s.OutDims()
		src := randSlice(rng, s.Ni*s.Ri*s.Ci)
		w := randSlice(rng, s.No*s.Ni*s.K*s.K)
		kdim := s.Ni * s.K * s.K

		col := make([]float32, kdim*ro*co)
		Im2colRef(src, s, col)
		viaGEMM := make([]float32, s.No*ro*co)
		RefGEMM(w, col, viaGEMM, s.No, kdim, ro*co)

		direct := make([]float32, s.No*ro*co)
		RefConvForward(src, w, nil, s, direct)

		if d := maxAbsDiff(viaGEMM, direct); d > 1e-4 {
			t.Fatalf("shape %v: im2col+GEMM differs from direct conv by %g", s, d)
		}
	}
}

func TestCol2imIsAdjointOfIm2col(t *testing.T) {
	// <im2col(x), y> == <x, col2im(y)> for all x, y — the property that
	// makes the backward input pass correct.
	rng := rand.New(rand.NewSource(12))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randConvShape(r)
		ro, co := s.OutDims()
		kdim := s.Ni * s.K * s.K
		x := randSlice(rng, s.Ni*s.Ri*s.Ci)
		y := randSlice(rng, kdim*ro*co)

		ax := make([]float32, kdim*ro*co)
		Im2colRef(x, s, ax)
		var lhs float64
		for i := range ax {
			lhs += float64(ax[i]) * float64(y[i])
		}

		aty := make([]float32, s.Ni*s.Ri*s.Ci)
		Col2imRef(y, s, aty)
		var rhs float64
		for i := range aty {
			rhs += float64(x[i]) * float64(aty[i])
		}
		diff := lhs - rhs
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if l := lhs; l < 0 {
			scale = -l
		} else {
			scale = l
		}
		return diff <= 1e-3*(scale+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Im2colRef and Col2imRef hoist each tap's in-bounds run out of the
// per-element loop; they must still give the per-element loops' bits,
// for every K 1–5, S 1–3 and P 0–K over small odd images, taps that fall
// entirely in the padding included. The column matrix starts as NaN, so
// an element the lowering forgot to clear shows up.
func TestIm2colCol2imMatchNaiveLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := &gemmInputs{rng: rng, zeroFrac: 0.1, specials: true}
	fill := func(v []float32) {
		for i := range v {
			v[i] = g.value()
		}
	}
	shapes, emptyTaps := 0, 0
	for k := 1; k <= 5; k++ {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad <= k; pad++ {
				for _, ri := range []int{1, 3, 5, 7} {
					for _, ci := range []int{1, 3, 5, 7} {
						s := ConvShape{B: 1, Ni: 1 + rng.Intn(2), Ri: ri, Ci: ci, No: 1, K: k, S: stride, P: pad}
						if s.Validate() != nil {
							continue
						}
						shapes++
						ro, co := s.OutDims()
						for kx := 0; kx < k; kx++ {
							if lo, hi := s.tapRange(kx, co); lo == hi {
								emptyTaps++
							}
						}
						src := make([]float32, s.Ni*s.Ri*s.Ci)
						fill(src)
						want := make([]float32, s.Ni*k*k*ro*co)
						got := make([]float32, len(want))
						for i := range got {
							got[i] = float32(math.NaN())
						}
						im2colNaive(src, s, want)
						Im2colRef(src, s, got)
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("%v: Im2colRef[%d] = %#08x, per-element loop %#08x", s, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
							}
						}

						col := make([]float32, len(want))
						fill(col)
						want = make([]float32, len(src))
						fill(want)
						got = append([]float32(nil), want...)
						col2imNaive(col, s, want)
						Col2imRef(col, s, got)
						for i := range want {
							if !sameBits(got[i], want[i]) {
								t.Fatalf("%v: Col2imRef[%d] = %#08x, per-element loop %#08x", s, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
	if shapes < 500 || emptyTaps == 0 {
		t.Fatalf("%d shapes with %d taps entirely in the padding; the sweep lost its coverage", shapes, emptyTaps)
	}
}

func TestIm2colRunMatchesRef(t *testing.T) {
	cg := sw26010.NewCoreGroup(nil)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		s := randConvShape(rng)
		ro, co := s.OutDims()
		kdim := s.Ni * s.K * s.K
		src := randSlice(rng, s.Ni*s.Ri*s.Ci)
		want := make([]float32, kdim*ro*co)
		got := make([]float32, kdim*ro*co)
		Im2colRef(src, s, want)
		if tm := Im2colRun(cg, src, s, got); tm <= 0 {
			t.Fatalf("shape %v: no simulated time", s)
		}
		if d := maxAbsDiff(got, want); d != 0 {
			t.Fatalf("shape %v: simulator im2col differs by %g", s, d)
		}
	}
}

func TestConvExplicitRunMatchesDirect(t *testing.T) {
	cg := sw26010.NewCoreGroup(nil)
	rng := rand.New(rand.NewSource(14))
	s := ConvShape{B: 1, Ni: 6, Ri: 10, Ci: 10, No: 12, K: 3, S: 1, P: 1}
	ro, co := s.OutDims()
	src := randSlice(rng, s.Ni*s.Ri*s.Ci)
	w := randSlice(rng, s.No*s.Ni*s.K*s.K)
	bias := randSlice(rng, s.No)
	got := make([]float32, s.No*ro*co)
	want := make([]float32, s.No*ro*co)
	ConvExplicitRun(cg, src, w, bias, s, got)
	RefConvForward(src, w, bias, s, want)
	if d := maxAbsDiff(got, want); d > 1e-3 {
		t.Fatalf("explicit pipeline differs from direct conv by %g", d)
	}
}

func TestConvShapeValidation(t *testing.T) {
	good := ConvShape{B: 1, Ni: 3, Ri: 8, Ci: 8, No: 4, K: 3, S: 1, P: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []ConvShape{
		{B: 0, Ni: 3, Ri: 8, Ci: 8, No: 4, K: 3, S: 1},
		{B: 1, Ni: 3, Ri: 8, Ci: 8, No: 4, K: 0, S: 1},
		{B: 1, Ni: 3, Ri: 8, Ci: 8, No: 4, K: 3, S: 0},
		{B: 1, Ni: 3, Ri: 2, Ci: 2, No: 4, K: 5, S: 1, P: 0}, // empty output
		{B: 1, Ni: 3, Ri: 8, Ci: 8, No: 4, K: 3, S: 1, P: -1},
	}
	for i, s := range bads {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d (%v): expected validation error", i, s)
		}
	}
}

func TestConvOutDimsAndFlops(t *testing.T) {
	s := ConvShape{B: 2, Ni: 3, Ri: 224, Ci: 224, No: 64, K: 3, S: 1, P: 1}
	ro, co := s.OutDims()
	if ro != 224 || co != 224 {
		t.Fatalf("same-pad conv dims = %d,%d", ro, co)
	}
	want := 2.0 * 2 * 3 * 64 * 224 * 224 * 9
	if s.Flops() != want {
		t.Fatalf("Flops = %g, want %g", s.Flops(), want)
	}
	s2 := ConvShape{B: 1, Ni: 3, Ri: 227, Ci: 227, No: 96, K: 11, S: 4, P: 0}
	if ro, co := s2.OutDims(); ro != 55 || co != 55 {
		t.Fatalf("AlexNet conv1 dims = %d,%d, want 55,55", ro, co)
	}
}

// table2Anchor is one row of paper Table II (forward columns).
type table2Anchor struct {
	name         string
	ni, no, size int
	implFwd      float64 // seconds, -1 when infeasible
	explFwd      float64
}

var table2Anchors = []table2Anchor{
	{"1_1", 3, 64, 224, -1, 4.19},
	{"1_2", 64, 64, 224, 4.30, 7.79},
	{"2_1", 64, 128, 112, 1.63, 2.45},
	{"2_2", 128, 128, 112, 2.34, 3.14},
	{"3_1", 128, 256, 56, 1.06, 0.73},
	{"3_2", 256, 256, 56, 1.79, 1.14},
	{"3_3", 256, 256, 56, 1.79, 1.14},
	{"4_1", 256, 512, 28, 0.84, 0.69},
	{"4_2", 512, 512, 28, 1.68, 1.33},
	{"4_3", 512, 512, 28, 1.68, 1.33},
	{"5_1", 512, 512, 14, 0.40, 0.62},
	{"5_2", 512, 512, 14, 0.40, 0.63},
	{"5_3", 512, 512, 14, 0.40, 0.63},
}

func TestTable2ForwardAnchors(t *testing.T) {
	hw := sw26010.Default()
	for _, a := range table2Anchors {
		s := ConvShape{B: 128, Ni: a.ni, Ri: a.size, Ci: a.size, No: a.no, K: 3, S: 1, P: 1}
		impl, expl, best := ConvPlans(hw, s, Forward)

		if a.implFwd < 0 {
			if impl.Feasible {
				t.Errorf("%s: implicit plan should be infeasible (Ni=%d)", a.name, a.ni)
			}
		} else {
			if !impl.Feasible {
				t.Errorf("%s: implicit plan should be feasible", a.name)
				continue
			}
			if ratio := impl.Time / a.implFwd; ratio < 0.8 || ratio > 1.25 {
				t.Errorf("%s: implicit fwd %.2fs vs paper %.2fs (ratio %.2f)", a.name, impl.Time, a.implFwd, ratio)
			}
		}
		if ratio := expl.Time / a.explFwd; ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%s: explicit fwd %.2fs vs paper %.2fs (ratio %.2f)", a.name, expl.Time, a.explFwd, ratio)
		}

		// The mixed-strategy winner must match the paper's.
		wantWinner := "explicit"
		if a.implFwd > 0 && a.implFwd < a.explFwd {
			wantWinner = "implicit"
		}
		if best.Name != wantWinner {
			t.Errorf("%s: winner %s, paper picks %s", a.name, best.Name, wantWinner)
		}
	}
}

func TestTable2BackwardFeasibilityPattern(t *testing.T) {
	// Paper Table II: implicit backward is infeasible ("-") for rows
	// 1_1, 1_2 and 2_1 (min channels < 128) and feasible from 2_2 on.
	hw := sw26010.Default()
	for _, a := range table2Anchors {
		s := ConvShape{B: 128, Ni: a.ni, Ri: a.size, Ci: a.size, No: a.no, K: 3, S: 1, P: 1}
		minC := a.ni
		if a.no < minC {
			minC = a.no
		}
		for _, pass := range []Pass{BackwardWeight, BackwardInput} {
			p := ConvImplicitPlan(hw, s, pass)
			if (minC >= 128) != p.Feasible {
				t.Errorf("%s %v: implicit feasible=%v, want %v", a.name, pass, p.Feasible, minC >= 128)
			}
		}
	}
}

func TestConvPlanMonotoneInBatch(t *testing.T) {
	hw := sw26010.Default()
	base := ConvShape{B: 32, Ni: 128, Ri: 56, Ci: 56, No: 128, K: 3, S: 1, P: 1}
	for _, pass := range []Pass{Forward, BackwardWeight, BackwardInput} {
		prev := 0.0
		for _, b := range []int{8, 16, 32, 64, 128} {
			s := base
			s.B = b
			p := Best(ConvImplicitPlan(hw, s, pass), ConvExplicitPlan(hw, s, pass))
			if !p.Feasible {
				t.Fatalf("pass %v B=%d infeasible", pass, b)
			}
			if p.Time <= prev {
				t.Errorf("pass %v: time not increasing with batch at B=%d (%g <= %g)", pass, b, p.Time, prev)
			}
			prev = p.Time
		}
	}
}

func TestOneByOneConvSkipsLowering(t *testing.T) {
	hw := sw26010.Default()
	s := ConvShape{B: 32, Ni: 256, Ri: 14, Ci: 14, No: 64, K: 1, S: 1, P: 0}
	p1 := ConvExplicitPlan(hw, s, Forward)
	s3 := s
	s3.K, s3.P = 3, 1
	p3 := ConvExplicitPlan(hw, s3, Forward)
	// The 3x3 version moves the column buffer (2x K²·Ni·spatial);
	// the 1x1 version must move far fewer bytes per flop.
	perFlop1 := float64(p1.DMABytes) / p1.Flops
	perFlop3 := float64(p3.DMABytes) / p3.Flops
	if perFlop1 >= perFlop3 {
		t.Fatalf("1x1 conv should skip im2col traffic: %g vs %g bytes/flop", perFlop1, perFlop3)
	}
}

func TestBestPlanSelection(t *testing.T) {
	a := Plan{Name: "a", Feasible: true, Time: 2}
	b := Plan{Name: "b", Feasible: true, Time: 1}
	c := Infeasible("c", "nope")
	if got := Best(a, b, c); got.Name != "b" {
		t.Fatalf("Best picked %s", got.Name)
	}
	if got := Best(c, a); got.Name != "a" {
		t.Fatalf("Best must skip infeasible plans, got %s", got.Name)
	}
	// Equal times: the earlier argument wins, whichever it is.
	tie := Plan{Name: "tie", Feasible: true, Time: 1}
	if got := Best(a, b, tie); got.Name != "b" {
		t.Fatalf("Best on a tie picked %s, want the earlier b", got.Name)
	}
	if got := Best(tie, b); got.Name != "tie" {
		t.Fatalf("Best on a tie picked %s, want the earlier tie", got.Name)
	}
	d := Infeasible("d", "neither")
	got := Best(c, d)
	if got.Feasible || got.Name != "best" {
		t.Fatalf("Best of infeasible plans must be infeasible, got %+v", got)
	}
	for _, want := range []string{"c: nope", "d: neither"} {
		if !strings.Contains(got.Reason, want) {
			t.Fatalf("Reason %q does not list %q", got.Reason, want)
		}
	}
}

func TestPlanGflops(t *testing.T) {
	p := Plan{Feasible: true, Time: 2, Flops: 4e9}
	if g := p.Gflops(); g != 2 {
		t.Fatalf("Gflops = %g", g)
	}
	if Infeasible("x", "nope").Gflops() != 0 {
		t.Fatal("infeasible plan Gflops must be 0")
	}
}

func TestGEMMPlanNoRLCSlower(t *testing.T) {
	hw := sw26010.Default()
	for _, n := range []int{64, 256, 1024} {
		with := GEMMPlan(hw, n, n, n)
		without := GEMMPlanNoRLC(hw, n, n, n)
		if without.Time <= with.Time {
			t.Errorf("n=%d: disabling RLC should slow GEMM (%g vs %g)", n, without.Time, with.Time)
		}
	}
}

func TestPoolPlan(t *testing.T) {
	hw := sw26010.Default()
	s := PoolShape{B: 64, C: 96, Ri: 55, Ci: 55, K: 3, S: 2}
	ro, co := s.OutDims()
	if ro != 27 || co != 27 {
		t.Fatalf("pool dims %d,%d, want 27,27", ro, co)
	}
	p := PoolPlan(hw, s)
	if !p.Feasible || p.Time <= 0 {
		t.Fatal("pool plan must be feasible and positive")
	}
	// Pooling is bandwidth-bound on SW26010 (the Fig. 8/9 claim).
	if p.DMATime < p.ComputeTime/4 {
		t.Fatalf("pooling should be dominated by movement: dma %g vs compute %g", p.DMATime, p.ComputeTime)
	}
}

func TestElementwisePlan(t *testing.T) {
	hw := sw26010.Default()
	e := ElementwisePlan(hw, 1<<20, 1, 1, 1)
	if e.Time <= 0 {
		t.Fatal("elementwise plan must cost time")
	}
}

func TestInnerProductPlanPasses(t *testing.T) {
	hw := sw26010.Default()
	for _, pass := range []Pass{Forward, BackwardWeight, BackwardInput} {
		p := InnerProductPlan(hw, 64, 9216, 4096, pass)
		if !p.Feasible || p.Time <= 0 {
			t.Fatalf("inner product plan %v infeasible", pass)
		}
	}
}
