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

// bin is the swmodel binary, built once for the whole package.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "swmodel-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "swmodel")
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

// TestBadFlagsExitTwo: an empty or negative batch and an unknown model
// are refused before any output, with one line on stderr — not with
// negative flops and a negative iteration time.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{{"-batch", "0"}, {"-batch", "-4"}, {"-model", "lenet"}} {
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
		if strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "swmodel: ") {
			t.Errorf("%v: stderr is not a one-line message:\n%s", args, stderr)
		}
	}
}

func TestGoodRun(t *testing.T) {
	stdout, stderr, exit, err := run("-model", "alexnet-bn", "-batch", "4")
	if err != nil || exit != 0 {
		t.Fatalf("exit %d, err %v, stderr:\n%s", exit, err, stderr)
	}
	if !strings.HasPrefix(stdout, "alexnet-bn @ batch 4 on SW26010\n") || !strings.Contains(stdout, "  forward flops: 9.08 G") {
		t.Errorf("summary missing or wrong:\n%s", stdout)
	}
}
