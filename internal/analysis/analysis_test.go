package analysis

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// fixtureRoot is a miniature module mirroring the real tree's package
// layout, with one seeded violation (and one blessed counterpart) per
// analyzer.
func fixtureRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", "swcaffe"))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// runFixture formats one run exactly as cmd/swvet prints it: sorted
// findings, then the summary line.
func runFixture(t *testing.T, analyzers []*Analyzer, prefixes ...string) string {
	t.Helper()
	r := &Runner{Root: fixtureRoot(t), Module: "swcaffe", Analyzers: analyzers}
	res, err := r.Run(prefixes...)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, f := range res.Findings {
		fmt.Fprintln(&b, f.String())
	}
	fmt.Fprintf(&b, "swvet: %d unsuppressed finding(s), %d suppressed\n", len(res.Findings), res.Suppressed)
	return b.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/analysis -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch for %s:\n--- want ---\n%s--- got ---\n%s", name, want, got)
	}
}

func one(a *Analyzer) []*Analyzer { return []*Analyzer{a} }

// TestGoldenDiagnostics pins each analyzer's findings on its fixture
// byte-for-byte: message text, position, ordering, and suppression
// accounting all participate in the diff.
func TestGoldenDiagnostics(t *testing.T) {
	cases := []struct {
		golden    string
		analyzers []*Analyzer
		prefixes  []string
	}{
		{"wallclock.txt", one(Wallclock()), []string{"swcaffe/internal/collective"}},
		{"des.txt", All(), []string{"swcaffe/internal/des"}},
		{"rawrand.txt", one(Rawrand()), []string{"swcaffe/internal/topology", "swcaffe/internal/elastic"}},
		{"maporder.txt", one(Maporder()), []string{"swcaffe/internal/obs"}},
		{"straygo.txt", one(Straygo()), []string{"swcaffe/internal/train", "swcaffe/internal/swnode", "swcaffe/cmd/tool"}},
		{"printless.txt", one(Printless()), []string{"swcaffe/internal/core", "swcaffe/cmd/tool"}},
		{"deadexport.txt", one(Deadexport()), []string{"swcaffe/internal/perf"}},
		{"ignore.txt", All(), []string{"swcaffe/internal/pario"}},
		{"all.txt", All(), nil},
	}
	for _, c := range cases {
		t.Run(strings.TrimSuffix(c.golden, ".txt"), func(t *testing.T) {
			checkGolden(t, c.golden, runFixture(t, c.analyzers, c.prefixes...))
		})
	}
}

// TestIgnoreWithoutReasonIsAFinding pins the suppression contract
// directly: a bare //swvet:ignore, or one with an empty reason, is a
// diagnostic — and naming an unregistered analyzer is too.
func TestIgnoreWithoutReasonIsAFinding(t *testing.T) {
	out := runFixture(t, All(), "swcaffe/internal/pario")
	for _, want := range []string{
		"ignore.go:8:2: ignore: suppression without a reason",
		"ignore.go:10:2: ignore: suppression without a reason",
		`suppression names unknown analyzer "nosuch"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fixture output missing %q:\n%s", want, out)
		}
	}
}

// TestByteDeterministicOutput runs the full catalog over the whole
// fixture module twice, with independent loaders, and demands
// identical bytes — the property every golden above depends on.
func TestByteDeterministicOutput(t *testing.T) {
	a := runFixture(t, All())
	b := runFixture(t, All())
	if a != b {
		t.Errorf("two identical runs differ:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// TestRealTreeIsClean runs the catalog over the actual repository:
// the fix-forward sweep keeps HEAD at zero unsuppressed findings, and
// this test keeps it there. It also pins the suppressions at the two
// the tree has (the pass pool's workers and the experiments' fan-out),
// so that a new exception is a visible edit of this test.
func TestRealTreeIsClean(t *testing.T) {
	root, module, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Root: root, Module: module}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("unsuppressed finding: %s", f)
	}
	if res.Suppressed > 2 {
		t.Errorf("%d suppressed findings, want at most 2: explain a new exception here by raising the bound", res.Suppressed)
	}
}
