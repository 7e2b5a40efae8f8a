package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"swcaffe/internal/allreduce"
)

// bin is the swallreduce binary, built once for the whole package.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "swallreduce-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "swallreduce")
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

// TestBadFlagsExitTwo: a cluster of no nodes, a supernode of no nodes,
// an empty gradient, one the wire arithmetic cannot hold (infinite, or
// past 1e15 bytes, where the int64 census wraps) and an unknown
// algorithm are refused before any work, with one line on stderr — not with a panic after three
// tables, nor with infinite makespans.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{{"-nodes", "0"}, {"-q", "0"}, {"-bytes", "0"}, {"-bytes", "Inf"}, {"-bytes", "1e30"}, {"-alg", "bogus"}} {
		stdout, stderr, exit, err := run(args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if exit != 2 {
			t.Errorf("%v: exit %d, want 2", args, exit)
		}
		if stdout != "" {
			t.Errorf("%v: printed %d bytes to stdout before refusing", args, len(stdout))
		}
		if strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "swallreduce: ") || strings.Contains(stderr, "goroutine") {
			t.Errorf("%v: stderr is not a one-line message:\n%s", args, stderr)
		}
	}
}

func TestGoodRun(t *testing.T) {
	stdout, stderr, exit, err := run("-nodes", "8", "-q", "4", "-bytes", "1e6")
	if err != nil || exit != 0 {
		t.Fatalf("exit %d, err %v, stderr:\n%s", exit, err, stderr)
	}
	if !strings.Contains(stdout, "=== live simulated run: recursive-halving-doubling, p=8, 1e+06 bytes ===") ||
		strings.Count(stdout, "makespan ") < 2 {
		t.Errorf("live-run section missing from the output:\n%s", stdout)
	}
}

// TestStrayArgumentExitsTwo: swallreduce takes no positional arguments, so a
// stray one is refused with usage on stderr rather than ignored.
func TestStrayArgumentExitsTwo(t *testing.T) {
	stdout, stderr, exit, err := run("-nodes", "8", "bogus")
	if err != nil {
		t.Fatal(err)
	}
	if exit != 2 || stdout != "" {
		t.Errorf("exit %d with %d bytes on stdout, want exit 2 and none", exit, len(stdout))
	}
	if !strings.HasPrefix(stderr, "swallreduce: unexpected argument \"bogus\"\n") || !strings.Contains(stderr, "Usage of ") {
		t.Errorf("stderr does not name the argument and print usage:\n%s", stderr)
	}
}

// TestLiveRunSumsExactlyAtScale: at a few thousand nodes a float32 sum
// of the old inputs, float32(r+i), passes 2^24, and a correct all-reduce
// failed the check by rounding in another order than the reference.
// The live run at p = 6000 now checks all of rank 0's result exactly.
func TestLiveRunSumsExactlyAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("p = 6000 goroutine ranks")
	}
	a, err := allreduce.ByName(allreduce.NameRHD)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := liveRun(&out, allreduce.NameRHD, a, 6000, 232.6e6); err != nil {
		t.Errorf("%v\n%s", err, out.String())
	}
}
