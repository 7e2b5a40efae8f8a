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
// an empty gradient and one the wire arithmetic cannot hold (infinite,
// or past 1e15 bytes, where the int64 census wraps) are refused before
// any work, with one line on stderr — not with a panic after three
// tables, nor with infinite makespans.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{{"-nodes", "0"}, {"-q", "0"}, {"-bytes", "0"}, {"-bytes", "Inf"}, {"-bytes", "1e30"}} {
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
