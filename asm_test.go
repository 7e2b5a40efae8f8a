package swcaffe

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fusedOp matches the x86 fused multiply-add family (VFMADD231PS,
// VFNMSUB213SS, VFMADDSUB…): one rounding for a product and a sum,
// where the Go bodies and the goldens round twice.
var fusedOp = regexp.MustCompile(`\bV?FN?M(ADD|SUB)`)

// TestAssemblyHasNoFusedMultiplyAdd scans the code (not the comments)
// of every internal/*/*_amd64.s: the assembly kernels must give the
// bits of their Go bodies, which round each product before adding it.
func TestAssemblyHasNoFusedMultiplyAdd(t *testing.T) {
	files, err := filepath.Glob("internal/*/*_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no internal/*/*_amd64.s found")
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			code, _, _ := strings.Cut(sc.Text(), "//")
			if fusedOp.MatchString(code) {
				t.Errorf("%s:%d: fused multiply-add: %s", name, line, strings.TrimSpace(code))
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}
