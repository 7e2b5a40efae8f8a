package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the swdma binary, built once for the whole package.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "swdma-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "swdma")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(args ...string) (stdout, stderr string, exit int, err error) {
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	err = cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		exit, err = ee.ExitCode(), nil
	}
	return o.String(), e.String(), exit, err
}

const (
	fig2Header  = "\n=== Figure 2: continuous DMA_get bandwidth (GB/s) ===\n"
	crossHeader = "=== functional cross-check: simulated mesh vs model ===\n"
)

func TestModelOnly(t *testing.T) {
	stdout, stderr, exit, err := run("-verify=false")
	if err != nil || exit != 0 {
		t.Fatalf("exit %d, err %v, stderr:\n%s", exit, err, stderr)
	}
	if !strings.HasPrefix(stdout, fig2Header) || strings.Contains(stdout, crossHeader) {
		t.Errorf("-verify=false should print Fig. 2 alone:\n%s", stdout)
	}
}

// TestCrossCheck: the default run follows Fig. 2 with one row per
// transfer size, and on each the functional mesh's time is the model's.
func TestCrossCheck(t *testing.T) {
	stdout, stderr, exit, err := run()
	if err != nil || exit != 0 {
		t.Fatalf("exit %d, err %v, stderr:\n%s", exit, err, stderr)
	}
	_, table, ok := strings.Cut(stdout, crossHeader)
	if !strings.HasPrefix(stdout, fig2Header) || !ok {
		t.Fatalf("Fig. 2 or the cross-check is missing:\n%s", stdout)
	}
	lines := strings.Split(strings.TrimSuffix(table, "\n"), "\n")
	if len(lines) != 6 || !strings.HasPrefix(lines[5], "total simulated DMA: ") {
		t.Fatalf("want a header, 4 rows and a total:\n%s", table)
	}
	for i, size := range []string{"512", "2048", "8192", "32768"} {
		f := strings.Fields(lines[1+i])
		if len(f) != 4 || f[0] != size || f[1] != "64" || f[2] != f[3] {
			t.Errorf("row %d = %q, want size %s on 64 CPEs with model = simulated", i, lines[1+i], size)
		}
	}
}

// TestStrayArgumentExitsTwo: swdma takes no positional arguments, so a
// stray one is refused with usage on stderr rather than ignored.
func TestStrayArgumentExitsTwo(t *testing.T) {
	stdout, stderr, exit, err := run("-verify=false", "bogus")
	if err != nil {
		t.Fatal(err)
	}
	if exit != 2 || stdout != "" {
		t.Errorf("exit %d with %d bytes on stdout, want exit 2 and none", exit, len(stdout))
	}
	if !strings.HasPrefix(stderr, "swdma: unexpected argument \"bogus\"\n") || !strings.Contains(stderr, "Usage of ") {
		t.Errorf("stderr does not name the argument and print usage:\n%s", stderr)
	}
}
