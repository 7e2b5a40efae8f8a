package swdnn_test

import (
	"os"
	"path/filepath"
	"testing"

	"swcaffe/internal/sw26010"
	"swcaffe/internal/swdnn"
)

// TestPlanCacheRoundTrip: saved plans reload bit-identical and make a
// cold process serve every query from the cache (no tiling searches).
func TestPlanCacheRoundTrip(t *testing.T) {
	swdnn.ResetPlanCache()
	hw := sw26010.Default()
	shape := swdnn.ConvShape{B: 128, Ni: 256, Ri: 56, Ci: 56, No: 256, K: 3, S: 1, P: 1}

	wantGEMM := swdnn.GEMMPlan(hw, 512, 384, 3136)
	wantNoRLC := swdnn.GEMMPlanNoRLC(hw, 512, 384, 3136)
	wantImp := swdnn.ConvImplicitPlan(hw, shape, swdnn.Forward)
	wantExp := swdnn.ConvExplicitPlan(hw, shape, swdnn.BackwardInput)
	size := swdnn.PlanCacheSize()
	if size == 0 {
		t.Fatal("no entries memoized")
	}

	path := filepath.Join(t.TempDir(), "sub", "plans.cache")
	n, err := swdnn.SavePlanCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != size {
		t.Fatalf("saved %d entries, cache holds %d", n, size)
	}

	// Simulate a cold start: empty table, load, then re-query.
	swdnn.ResetPlanCache()
	loaded, err := swdnn.LoadPlanCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != n {
		t.Fatalf("loaded %d of %d entries", loaded, n)
	}
	if got := swdnn.GEMMPlan(hw, 512, 384, 3136); got != wantGEMM {
		t.Fatalf("GEMM plan changed across persistence: %+v != %+v", got, wantGEMM)
	}
	if got := swdnn.GEMMPlanNoRLC(hw, 512, 384, 3136); got != wantNoRLC {
		t.Fatal("no-RLC plan changed across persistence")
	}
	if got := swdnn.ConvImplicitPlan(hw, shape, swdnn.Forward); got != wantImp {
		t.Fatal("implicit conv plan changed across persistence")
	}
	if got := swdnn.ConvExplicitPlan(hw, shape, swdnn.BackwardInput); got != wantExp {
		t.Fatal("explicit conv plan changed across persistence")
	}
	hits, misses := swdnn.PlanCacheCounters()
	if misses != 0 {
		t.Fatalf("warm start still computed %d plans (hits %d) — cache not effective", misses, hits)
	}
	if hits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

// TestPlanCacheLoadTolerance: a missing file and a foreign/stale
// version are silently ignored; a torn file of the current version
// reports the corruption but keeps valid prefix entries.
func TestPlanCacheLoadTolerance(t *testing.T) {
	swdnn.ResetPlanCache()
	dir := t.TempDir()

	if n, err := swdnn.LoadPlanCache(filepath.Join(dir, "absent.cache")); n != 0 || err != nil {
		t.Fatalf("missing file: n=%d err=%v", n, err)
	}

	stale := filepath.Join(dir, "stale.cache")
	if err := os.WriteFile(stale, []byte("swcaffe-plancache-v0\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := swdnn.LoadPlanCache(stale); n != 0 || err != nil {
		t.Fatalf("stale version must be ignored: n=%d err=%v", n, err)
	}

	// Build a real file, then truncate it mid-stream.
	hw := sw26010.Default()
	swdnn.GEMMPlan(hw, 256, 256, 256)
	good := filepath.Join(dir, "good.cache")
	if _, err := swdnn.SavePlanCache(good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.cache")
	if err := os.WriteFile(torn, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	swdnn.ResetPlanCache()
	if _, err := swdnn.LoadPlanCache(torn); err == nil {
		t.Fatal("torn current-version file must report corruption")
	}

	// Atomic overwrite: saving on top of an existing file replaces it.
	swdnn.ResetPlanCache()
	swdnn.GEMMPlan(hw, 128, 128, 128)
	if _, err := swdnn.SavePlanCache(good); err != nil {
		t.Fatal(err)
	}
	swdnn.ResetPlanCache()
	if n, err := swdnn.LoadPlanCache(good); err != nil || n == 0 {
		t.Fatalf("overwritten cache unreadable: n=%d err=%v", n, err)
	}
}
