package swcaffe

import (
	"bytes"
	"flag"
	"io"
	"os"
	"runtime"
	"testing"

	"swcaffe/internal/swdnn"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/evaluation.golden from the current generators")

const goldenPath = "testdata/evaluation.golden"

// TestEvaluationGolden pins WriteEvaluation — all 18 tables and figures
// — byte for byte. The file was generated before the generators' inputs
// (model specs, kernel plans, the summation fixture) became shared, so
// it is the reference that sharing cannot move. Regenerate with -update
// only for an intended change of a model or of a figure's content.
func TestEvaluationGolden(t *testing.T) {
	var got bytes.Buffer
	WriteEvaluation(&got)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", got.Len(), goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	wantLines, gotLines := bytes.Split(want, []byte("\n")), bytes.Split(got.Bytes(), []byte("\n"))
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%s holds %d lines, WriteEvaluation produces %d", goldenPath, len(wantLines), len(gotLines))
	}
	bad := 0
	for i := range wantLines {
		if !bytes.Equal(wantLines[i], gotLines[i]) {
			if bad++; bad <= 10 {
				t.Errorf("line %d:\n  got  %s\n  want %s", i+1, gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d lines differ from %s", bad, len(wantLines), goldenPath)
	}
}

// TestEvaluationAllocationBudget: once specs, plans, network prices and
// the summation fixture exist, regenerating the evaluation rebuilds
// none of them. Measured 0.11 MB and 2.7 k objects per call, 0.17–0.18 MB
// and 3.1–3.2 k under the race detector (0.22 MB and 3.6 k, 0.28 MB and
// 4.1 k under race, while Figure 7 ran simnet and every table built its
// own tabwriter; 0.76 MB and 4.3 k while Figure 7 reduced 4096-element
// vectors and numbers went through fmt's "%.Nf"; 1.07 MB and 4.7 k while
// every sweep point re-priced its network into a fresh per-layer slice;
// 64.9 MB, 140 k before that).
func TestEvaluationAllocationBudget(t *testing.T) {
	WriteEvaluation(io.Discard) // warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	WriteEvaluation(io.Discard)
	runtime.ReadMemStats(&after)
	nbytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("one warm WriteEvaluation: %d bytes, %d objects", nbytes, objects)
	if nbytes > 256<<10 {
		t.Errorf("allocated %d bytes, budget 256 KiB", nbytes)
	}
	if objects > 4000 {
		t.Errorf("allocated %d objects, budget 4000", objects)
	}
}

// TestEvaluationPricesEachNetworkOnce: a whole-network price is
// memoized per (network, device), and a scaling sweep prices its node
// once, so a warm evaluation queries the kernel planners only for the
// per-layer figures and the kernel tables — not once per layer of every
// sweep point, ablation row and figure that names a network.
func TestEvaluationPricesEachNetworkOnce(t *testing.T) {
	WriteEvaluation(io.Discard) // warm
	h0, m0 := swdnn.PlanCacheCounters()
	WriteEvaluation(io.Discard)
	h1, m1 := swdnn.PlanCacheCounters()
	queries := (h1 - h0) + (m1 - m0)
	t.Logf("one warm WriteEvaluation: %d planner queries", queries)
	if queries > 1000 { // 212 measured; 22 635 while each of them priced its own network
		t.Errorf("a warm evaluation made %d planner queries, budget 1000", queries)
	}
}
