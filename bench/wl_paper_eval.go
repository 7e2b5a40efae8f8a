package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"

	"swcaffe"
	"swcaffe/internal/experiments"
	"swcaffe/internal/models"
	"swcaffe/internal/perf"
	"swcaffe/internal/sw26010"
	"swcaffe/internal/swdnn"
)

// paperTable3SW is the SW26010 column of the paper's Table III in
// img/s, in experiments.Table3Workloads order (the values
// TestTable3MatchesPaperBands pins).
var paperTable3SW = []struct {
	net string
	sw  float64
}{
	{"alexnet-bn", 94.17}, {"vgg16", 6.21}, {"vgg19", 5.52}, {"resnet50", 5.56}, {"googlenet", 14.97},
}

// generators is swcaffe.WriteEvaluation's list, one entry per call, so
// the traced run can put a span around each. group names the
// per-layer metric the call is summed into. check compares the
// concatenated output with WriteEvaluation's own, so the list cannot
// drift from the product unnoticed. (Table III's rows are validated
// once, in set-up: equal output bytes imply equal rows afterwards.)
var generators = []struct {
	group string
	gen   func(w io.Writer)
}{
	{"micro", func(w io.Writer) { experiments.Table1(w) }},
	{"micro", func(w io.Writer) { experiments.Figure2(w) }},
	{"table2", func(w io.Writer) { experiments.Table2(w) }},
	{"micro", func(w io.Writer) { experiments.Figure6(w) }},
	{"micro", func(w io.Writer) { experiments.Figure7(w, 100e6) }},
	{"fig8_9", func(w io.Writer) { experiments.Figure8(w) }},
	{"fig8_9", func(w io.Writer) { experiments.Figure9(w) }},
	{"table3", func(w io.Writer) { experiments.Table3(w) }},
	{"fig10_11", func(w io.Writer) { experiments.Figure10(w) }},
	{"fig10_11", func(w io.Writer) { experiments.Figure11(w) }},
	{"ablations", func(w io.Writer) { experiments.IOStriping(w) }},
	{"ablations", func(w io.Writer) { experiments.PackAblation(w) }},
	{"ablations", func(w io.Writer) { experiments.GEMMAblation(w) }},
	{"ablations", func(w io.Writer) { experiments.AllreduceAblation(w) }},
	{"ablations", func(w io.Writer) { experiments.BNAblation(w) }},
	{"ablations", func(w io.Writer) { experiments.SumAblation(w) }},
	{"ablations", func(w io.Writer) { experiments.MappingAblation(w) }},
	{"ablations", func(w io.Writer) { experiments.BatchSweep(w) }},
}

// paperEval regenerates the paper's whole evaluation. It has no
// generated input: the evaluation is one fixed input, so the seed is
// unused and every seed gives the same digest.
type paperEval struct {
	e       *env
	out     bytes.Buffer
	ref     [sha256.Size]byte
	tab3Err float64 // mean |reproduced - paper| / paper, %
	simUS   float64 // modeled µs per image, summed over the five nets
	traced  int     // ops run under the tracer
}

func newPaperEval(e *env) (instance, error) {
	swdnn.ResetPlanCache() // every set-up fills the plan cache cold
	p := &paperEval{e: e}
	id := e.tr.begin("swcaffe", "WriteEvaluation")
	swcaffe.WriteEvaluation(&p.out)
	e.tr.end(id)
	p.ref = sha256.Sum256(p.out.Bytes())
	rows, err := table3Rows()
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		p.tab3Err += 100 * math.Abs(r.SW-paperTable3SW[i].sw) / paperTable3SW[i].sw / float64(len(rows))
		p.simUS += 1e6 / r.SW
	}
	return p, nil
}

// table3Rows returns Table III after checking it lists the five paper
// networks in order.
func table3Rows() ([]experiments.Table3Row, error) {
	rows := experiments.Table3(io.Discard)
	if len(rows) != len(paperTable3SW) {
		return nil, fmt.Errorf("Table3 has %d rows, the paper has %d", len(rows), len(paperTable3SW))
	}
	for i, r := range rows {
		if r.Network != paperTable3SW[i].net || !(r.SW > 0) {
			return nil, fmt.Errorf("Table3 row %d is %s at %g img/s, want %s", i, r.Network, r.SW, paperTable3SW[i].net)
		}
	}
	return rows, nil
}

func (p *paperEval) run(int) {
	p.out.Reset()
	tr := p.e.tr
	if tr == nil {
		swcaffe.WriteEvaluation(&p.out)
		return
	}
	p.traced++
	for _, g := range generators {
		id := tr.begin("experiments", g.group)
		g.gen(&p.out)
		tr.end(id)
	}
}

func (p *paperEval) check(int) error {
	if got := sha256.Sum256(p.out.Bytes()); got != p.ref {
		return fmt.Errorf("evaluation output changed: sha256 %x, first was %x", got[:6], p.ref[:6])
	}
	return nil
}

func (p *paperEval) simPerOp() float64 { return p.simUS }

func (p *paperEval) digest() string {
	s := newSimLog()
	s.h.Write(p.ref[:])
	s.f64("tab3_err_pct", p.tab3Err)
	s.f64("sim_us", p.simUS)
	return s.sum()
}

func (p *paperEval) probe(m map[string]float64) {
	tr := p.e.tr
	for _, g := range []string{"micro", "table2", "table3", "fig8_9", "fig10_11", "ablations"} {
		var total float64
		for _, d := range tr.durations("experiments", g) {
			total += d
		}
		m["experiments."+g+"_host_ms"] = total / 1e6 / float64(p.traced)
	}
	m["experiments.output_bytes"] = float64(p.out.Len())
	m["experiments.tab3_err_pct"] = p.tab3Err

	h0, m0 := swdnn.PlanCacheCounters()
	swcaffe.WriteEvaluation(io.Discard)
	h1, m1 := swdnn.PlanCacheCounters()
	if q := float64(h1-h0) + float64(m1-m0); q > 0 {
		m["swdnn.plan_cache_hit_ratio"] = float64(h1-h0) / q
	}

	vgg, dev := models.VGG16(64), perf.NewSWCG()
	m["models.cost_host_us"] = timeN(20, func() { vgg.Cost(dev) }) / 1e3

	hw := sw26010.Default()
	conv31 := swdnn.ConvShape{B: 64, Ni: 128, Ri: 56, Ci: 56, No: 256, K: 3, S: 1, P: 1}
	m["swdnn.plan_cold_host_us"] = timeN(5, func() {
		swdnn.ResetPlanCache()
		swdnn.GEMMPlan(hw, 512, 512, 3136)
		swdnn.ConvPlans(hw, conv31, swdnn.Forward)
	}) / 1e3
	const warm = 1000
	m["swdnn.plan_warm_host_ns"] = timeN(20, func() {
		for i := 0; i < warm; i++ {
			swdnn.GEMMPlan(hw, 512, 512, 3136)
		}
	}) / warm
}

func (p *paperEval) close() {}
