package swdnn_test

// Engine-invariance harness. The execution engine (superstep launches,
// plan cache, buffer pools) is host-side machinery only: simulated kernel
// times and Stats must be bit-identical to the seed implementation.
// This test runs a representative set of functional kernels and
// analytic plans and compares every simulated time and counter against
// a golden snapshot captured from the pre-refactor engine
// (testdata/invariance.json, regenerate with -update).
//
// Floats are stored as hex ('x') strings so the comparison is exact,
// not within-epsilon: any engine change that perturbs simulated math
// fails loudly.
//
// One deliberate re-baseline: the seed barrier let a waking waiter
// read maxT after faster CPEs had already entered the next barrier
// generation, so kernels that loop over barriers (multi-block GEMM,
// both convolution kernels) reported simulated times that depended on
// host scheduling — the seed produced three different "simulated"
// times for one kernel across GOMAXPROCS settings, inflated up to
// ~40x. The pooled engine snapshots the release clock per generation,
// making those times deterministic; conv_explicit, the since-deleted
// conv_implicit and gemm_ragged were re-captured from the fixed engine (all other
// scenarios are bit-identical to the seed). Mesh.Barrier in
// internal/sw26010/sim.go now aligns the clocks between supersteps.
//
// A second: GEMMRun used to tile with a search of its own, restricted
// to blocks dividing the 8-padded dims, while GEMMPlan priced another
// tiling. It now runs GEMMPlan's blocks, padding to their multiples, so
// the timing and traffic fields of gemm_ragged and conv_explicit (whose
// GEMM is ragged) were re-captured. Their csums, every other scenario
// and every plan are unchanged.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"swcaffe/internal/sw26010"
	"swcaffe/internal/swdnn"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/invariance.json from the current engine")

const goldenPath = "testdata/invariance.json"

// record is one scenario's observable output: the simulated time plus
// the full Stats counters, all floats hex-encoded.
type record map[string]string

func hx(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }
func istr(i int64) string { return strconv.FormatInt(i, 10) }
func statsRecord(t float64, st sw26010.Stats) record {
	return record{
		"time":        hx(t),
		"dmaGetBytes": istr(st.DMAGetBytes),
		"dmaPutBytes": istr(st.DMAPutBytes),
		"rlcBytes":    istr(st.RLCBytes),
		"rlcMsgs":     istr(st.RLCMsgs),
		"flops":       hx(st.Flops),
		"dmaTime":     hx(st.DMATime),
		"computeTime": hx(st.ComputeTime),
		"rlcTime":     hx(st.RLCTime),
		"ldmHighTide": istr(int64(st.LDMHighTide)),
	}
}

func planRecord(p swdnn.Plan) record {
	if !p.Feasible {
		return record{"feasible": "false"}
	}
	return record{
		"time":        hx(p.Time),
		"dmaTime":     hx(p.DMATime),
		"computeTime": hx(p.ComputeTime),
		"rlcTime":     hx(p.RLCTime),
		"flops":       hx(p.Flops),
		"dmaBytes":    istr(p.DMABytes),
		"rlcBytes":    istr(p.RLCBytes),
		"block":       fmt.Sprintf("%d,%d,%d", p.Block[0], p.Block[1], p.Block[2]),
	}
}

// fill writes deterministic pseudo-random values (no RNG state).
func fill(s []float32, seed uint32) {
	x := seed*2654435761 + 12345
	for i := range s {
		x = x*1664525 + 1013904223
		s[i] = float32(x>>16)/65536.0 - 0.5
	}
}

// collect runs every invariance scenario and returns name -> record.
func collect(t *testing.T) map[string]record {
	t.Helper()
	out := map[string]record{}

	runGEMM := func(name string, m, k, n int) {
		cg := sw26010.NewCoreGroup(nil)
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		c := make([]float32, m*n)
		fill(a, 1)
		fill(b, 2)
		fill(c, 3)
		elapsed := swdnn.GEMMRun(cg, a, b, c, m, k, n)
		out[name] = statsRecord(elapsed, cg.Stats())
		// The output matrix is part of the invariant too: engine reuse
		// must not perturb the functional math.
		var sum float64
		for _, v := range c {
			sum += float64(v)
		}
		out[name]["csum"] = hx(sum)
	}
	runGEMM("gemm64", 64, 64, 64)
	runGEMM("gemm128", 128, 128, 128)
	runGEMM("gemm_ragged", 60, 52, 44) // exercises the pad/unpad staging path
	runGEMM("gemm_rect", 16, 128, 32)

	// Repeat-launch scenario: the same CoreGroup runs three kernels in a
	// row; accumulated stats and each time must match the seed (catches
	// any state bleeding between launches in a pooled engine).
	{
		cg := sw26010.NewCoreGroup(nil)
		a := make([]float32, 64*64)
		b := make([]float32, 64*64)
		c := make([]float32, 64*64)
		fill(a, 4)
		fill(b, 5)
		var times float64
		for i := 0; i < 3; i++ {
			clear(c)
			times += swdnn.GEMMRun(cg, a, b, c, 64, 64, 64)
		}
		out["gemm_repeat3"] = statsRecord(times, cg.Stats())
	}

	{
		s := swdnn.ConvShape{B: 1, Ni: 3, Ri: 13, Ci: 13, No: 4, K: 3, S: 2, P: 1}
		ro, co := s.OutDims()
		cg := sw26010.NewCoreGroup(nil)
		src := make([]float32, s.Ni*s.Ri*s.Ci)
		w := make([]float32, s.No*s.Ni*s.K*s.K)
		bias := make([]float32, s.No)
		dst := make([]float32, s.No*ro*co)
		fill(src, 6)
		fill(w, 7)
		fill(bias, 8)
		elapsed := swdnn.ConvExplicitRun(cg, src, w, bias, s, dst)
		out["conv_explicit"] = statsRecord(elapsed, cg.Stats())
	}

	{
		cg := sw26010.NewCoreGroup(nil)
		acc := make([]float32, 5000)
		add := make([]float32, 5000)
		fill(acc, 13)
		fill(add, 14)
		elapsed := swdnn.SumRun(cg, acc, add)
		out["sum"] = statsRecord(elapsed, cg.Stats())
	}

	// Analytic planners: the memoized cache must return exactly what
	// the direct search computed.
	hw := sw26010.Default()
	out["plan_gemm512"] = planRecord(swdnn.GEMMPlan(hw, 512, 512, 512))
	out["plan_gemm_ragged"] = planRecord(swdnn.GEMMPlan(hw, 200, 363, 3136))
	out["plan_gemm_norlc"] = planRecord(swdnn.GEMMPlanNoRLC(hw, 512, 512, 512))
	out["plan_ip_fwd"] = planRecord(swdnn.InnerProductPlan(hw, 128, 4096, 4096, swdnn.Forward))
	out["plan_ip_bwdw"] = planRecord(swdnn.InnerProductPlan(hw, 128, 4096, 4096, swdnn.BackwardWeight))

	vgg := swdnn.ConvShape{B: 128, Ni: 256, Ri: 56, Ci: 56, No: 256, K: 3, S: 1, P: 1}
	for _, pass := range []swdnn.Pass{swdnn.Forward, swdnn.BackwardWeight, swdnn.BackwardInput} {
		imp, exp, best := swdnn.ConvPlans(hw, vgg, pass)
		out["plan_conv_imp_"+pass.String()] = planRecord(imp)
		out["plan_conv_exp_"+pass.String()] = planRecord(exp)
		out["plan_conv_best_"+pass.String()] = record{"name": best.Name}
	}
	small := swdnn.ConvShape{B: 128, Ni: 3, Ri: 224, Ci: 224, No: 64, K: 3, S: 1, P: 1}
	imp, exp, _ := swdnn.ConvPlans(hw, small, swdnn.Forward)
	out["plan_conv_imp_small"] = planRecord(imp)
	out["plan_conv_exp_small"] = planRecord(exp)

	out["plan_im2col"] = planRecord(swdnn.Im2colPlan(hw, vgg))
	out["plan_pool"] = planRecord(swdnn.PoolPlan(hw, swdnn.PoolShape{B: 128, C: 64, Ri: 112, Ci: 112, K: 2, S: 2}))
	out["plan_elementwise"] = planRecord(swdnn.ElementwisePlan(hw, 1<<20, 1, 1, 1))
	return out
}

func TestEngineInvariance(t *testing.T) {
	got := collect(t)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d scenarios)", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden snapshot (run with -update to create): %v", err)
	}
	var want map[string]record
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	var names []string
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: scenario missing from current run", name)
			continue
		}
		for field, wv := range want[name] {
			if gv := g[field]; gv != wv {
				t.Errorf("%s.%s: engine output changed: got %s, want %s", name, field, gv, wv)
			}
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: scenario not in golden file (run -update)", name)
		}
	}
}

// TestEngineDeterminism runs the same kernel twice on one CoreGroup
// and on a fresh CoreGroup and demands identical simulated times:
// engine reuse (the persistent CPEs and their LDM) must be invisible.
func TestEngineDeterminism(t *testing.T) {
	mk := func() ([]float32, []float32, []float32) {
		a := make([]float32, 96*96)
		b := make([]float32, 96*96)
		c := make([]float32, 96*96)
		fill(a, 20)
		fill(b, 21)
		return a, b, c
	}
	a, b, c := mk()
	cg := sw26010.NewCoreGroup(nil)
	t1 := swdnn.GEMMRun(cg, a, b, c, 96, 96, 96)
	c1 := append([]float32(nil), c...)
	clear(c)
	t2 := swdnn.GEMMRun(cg, a, b, c, 96, 96, 96) // reused engine
	cgFresh := sw26010.NewCoreGroup(nil)
	clear(c)
	t3 := swdnn.GEMMRun(cgFresh, a, b, c, 96, 96, 96) // fresh engine
	if t1 != t2 || t1 != t3 {
		t.Fatalf("simulated times differ across launches: %v %v %v", t1, t2, t3)
	}
	for i := range c {
		if c[i] != c1[i] {
			t.Fatalf("output differs at %d between first and reused launch", i)
		}
	}
}
