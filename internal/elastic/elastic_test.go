package elastic

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleState() *State {
	return &State{
		Step:       7,
		World:      8,
		SolverIter: 7,
		Params: []Blob{
			{Name: "fc1.weight", Shape: [4]int{4, 3, 1, 1}, Data: []float32{0.5, -1.25, float32(math.Pi), 1e-30, -0, 3, 7, 8, 9, 10, 11, 12}},
			{Name: "fc1.bias", Shape: [4]int{4, 1, 1, 1}, Data: []float32{0, 1, 2, 3}},
		},
		History: []Blob{
			{Name: "history/fc1.weight", Shape: [4]int{4, 3, 1, 1}, Data: make([]float32, 12)},
		},
	}
}

func blobsEqualBits(a, b []Blob) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Shape != b[i].Shape || len(a[i].Data) != len(b[i].Data) {
			return false
		}
		for j := range a[i].Data {
			if math.Float32bits(a[i].Data[j]) != math.Float32bits(b[i].Data[j]) {
				return false
			}
		}
	}
	return true
}

func TestCheckpointRoundTripExact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt", "state.gob")
	want := sampleState()
	if err := Save(path, want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Step != want.Step || got.World != want.World || got.SolverIter != want.SolverIter {
		t.Fatalf("scalar state mismatch: got %+v", got)
	}
	if !blobsEqualBits(got.Params, want.Params) || !blobsEqualBits(got.History, want.History) {
		t.Fatalf("blobs not bit-identical after round trip")
	}

	// Save must atomically replace an existing checkpoint and leave no
	// temp files behind.
	want.Step = 8
	if err := Save(path, want); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	got, err = Load(path)
	if err != nil || got.Step != 8 {
		t.Fatalf("re-Load: step=%d err=%v", got.Step, err)
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// TestCheckpointVersionSkewRejected pins the guarded-version contract:
// a checkpoint from another schema generation must fail with a clear
// error naming both versions — never be silently reinterpreted, and
// never be silently ignored like the plan cache (which may recompute;
// a checkpoint cannot).
func TestCheckpointVersionSkewRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.gob")
	if err := Save(path, sampleState()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := []byte("swcaffe-elastic-checkpoint-v0\n")
	forged := append(old, raw[len(Version)+1:]...)
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if err == nil {
		t.Fatalf("old-version checkpoint loaded without error")
	}
	if !strings.Contains(err.Error(), "swcaffe-elastic-checkpoint-v0") || !strings.Contains(err.Error(), Version) {
		t.Fatalf("version-skew error must name both versions, got: %v", err)
	}
}

func TestCheckpointTruncatedAndMissing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.gob")
	if _, err := Load(path); err == nil {
		t.Fatalf("missing checkpoint loaded without error")
	}
	if err := Save(path, sampleState()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatalf("truncated checkpoint loaded without error")
	}
}

func mustParseFaultPlan(t *testing.T, spec string) *FaultPlan {
	t.Helper()
	p, err := ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseFaultPlan(t *testing.T) {
	p := mustParseFaultPlan(t, "3@5:flush-bucket-0, 1@2:forward")
	if p.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", p.Pending())
	}
	for _, bad := range []string{"", "x@1:forward", "1@y:forward", "1@2", "1@2:warp", "1@2:flush-bucket-x", "-1@2:forward"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}

func TestFaultPlanCheckFiresOnceAtExactCoordinates(t *testing.T) {
	p := mustParseFaultPlan(t, "2@3:flush-bucket-1")
	// Wrong rank / step / phase / bucket: no fire.
	p.Check(1, 3, PhaseFlush, 1)
	p.Check(2, 2, PhaseFlush, 1)
	p.Check(2, 3, PhaseForward, -1)
	p.Check(2, 3, PhaseFlush, 0)
	if p.Pending() != 1 {
		t.Fatalf("fault fired at wrong coordinates")
	}
	fired := func() (r any) {
		defer func() { r = recover() }()
		p.Check(2, 3, PhaseFlush, 1)
		return nil
	}()
	inj, ok := fired.(Injected)
	if !ok || inj.Rank != 2 || inj.Step != 3 || inj.Phase != PhaseFlush || inj.Bucket != 1 {
		t.Fatalf("expected Injected{2,3,flush,1}, got %#v", fired)
	}
	if rank, ok := FailedRank(fired); !ok || rank != 2 {
		t.Fatalf("FailedRank(%#v) = %d,%v", fired, rank, ok)
	}
	// One-shot: the same coordinates never fire twice.
	p.Check(2, 3, PhaseFlush, 1)
	if p.Pending() != 0 {
		t.Fatalf("pending = %d after fire, want 0", p.Pending())
	}

	// A bucket of -1 matches the first flush attempted.
	q := mustParseFaultPlan(t, "0@0:flush")
	anyBucket := func() (r any) {
		defer func() { r = recover() }()
		q.Check(0, 0, PhaseFlush, 5)
		return nil
	}()
	if inj, ok := anyBucket.(Injected); !ok || inj.Bucket != -1 {
		t.Fatalf("flush wildcard did not fire: %#v", anyBucket)
	}
}

func TestFailedRankUnknownPanic(t *testing.T) {
	if _, ok := FailedRank("some random panic"); ok {
		t.Fatalf("string panic must not claim a rank")
	}
}
