package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// smoke runs workload w once at test scale, traced or not.
func smoke(t *testing.T, w *workload, traced bool) *result {
	t.Helper()
	e := &env{seed: 7, seconds: 1, smoke: true, batch: max(w.batch/10, 1), outDir: t.TempDir(), log: io.Discard}
	if traced {
		e.tr = newTracer()
	}
	res, err := runWorkload(e, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: %d of %d ops failed verification", w.Name, res.Failed, res.Attempted)
	}
	if traced {
		b, err := os.ReadFile(filepath.Join(e.outDir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct{ TraceEvents []map[string]any }
		if err := json.Unmarshal(b, &tr); err != nil || len(tr.TraceEvents) == 0 {
			t.Errorf("%s: trace file holds %d events, err %v", w.Name, len(tr.TraceEvents), err)
		}
	}
	return res
}

// TestSmoke runs every workload untraced and traced at smoke scale with
// all verifications on and checks that each run reports its whole
// metric set.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			res := smoke(t, w, false)
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
				}
			}
			res = smoke(t, w, true)
			var live int
			for _, d := range perLayer {
				if res.Metrics[d.Name] != 0 {
					live++
				}
			}
			if live < 12 {
				t.Errorf("only %d per-layer metrics are non-zero", live)
			}
			if s := res.Metrics["bench.span_self_sum_pct"]; s < 98 || s > 102 {
				t.Errorf("span self times sum to %.2f %% of the traced wall time", s)
			}
			for k := range res.Metrics {
				if !declared(k) {
					t.Errorf("metric %s is reported but not declared in metrics.go", k)
				}
			}
		})
	}
}

func declared(name string) bool {
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if d.Name == name {
			return true
		}
	}
	return false
}

// TestSimulatedClockRepeats is the reading rule of the README: the same
// seed gives bit-identical simulated metrics and digest, whatever the
// host parallelism.
func TestSimulatedClockRepeats(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i := range workloads {
		w := &workloads[i]
		var sim []float64
		var digest []string
		for _, procs := range []int{1, 2, 2} {
			runtime.GOMAXPROCS(procs)
			res := smoke(t, w, false)
			sim = append(sim, res.Metrics["sim_us_per_op"])
			digest = append(digest, res.SimDigest)
		}
		if sim[0] != sim[1] || sim[1] != sim[2] || digest[0] != digest[1] || digest[1] != digest[2] {
			t.Errorf("%s: sim_us_per_op %v, digests %v differ between runs", w.Name, sim, digest)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json equal to the catalogue the
// driver emits, and inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver (2 to 8 allowed)", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.Name)
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the driver %s: %s", i, spec.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(want) < 1 || len(want) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the driver (1 to %d allowed)", kind, len(got), len(want), limit)
		}
		for i, d := range want {
			checkName(d.Name)
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || !unit.MatchString(d.Unit) ||
				(d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the driver %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the driver (0 < bound <= 0.25)", d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, 16, true)
	same("per_layer", spec.PerLayer, perLayer, 128, false)
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "bench" || len(spec.Command) == 0 {
		t.Errorf("run_seconds %d, paths %v, command %v", spec.RunSeconds, spec.Paths, spec.Command)
	}
}

// TestCompare is the -repeat gate: a metric that moves by more than its
// bound between two sets is named with its workload; one inside it is
// not.
func TestCompare(t *testing.T) {
	a := setResult{digest: "d", metrics: map[string]float64{"host_ops_per_s": 100, "sim_us_per_op": 698.33}}
	b := setResult{digest: "d", metrics: map[string]float64{"host_ops_per_s": 95, "sim_us_per_op": 698.33}}
	if d := compare("w", a, b); len(d) != 0 {
		t.Errorf("5 %% inside the bound reported: %v", d)
	}
	b.metrics["host_ops_per_s"], b.metrics["sim_us_per_op"], b.digest = 70, 698.34, "e"
	d := compare("w", a, b)
	if len(d) != 3 || !strings.Contains(strings.Join(d, "\n"), "w: host_ops_per_s") {
		t.Errorf("want the digest and two metrics of workload w named, got %v", d)
	}
}
