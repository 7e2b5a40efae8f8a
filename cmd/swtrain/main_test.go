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

// bin is the swtrain binary, built once for the whole package.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "swtrain-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "swtrain")
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

// TestBadFlagsExitTwo: no classes, no iterations, a non-finite
// learning rate, a negative supernode size, a stripe count the 32-array
// store cannot hold, negative sizes and the -cg4 conflicts are refused before any work, with one line on stderr — not
// with a divide-by-zero panic, silently, or with exit 1.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "2", "-classes", "0"},
		{"-q", "-3"},
		{"-nodes", "0"},
		{"-batch", "0"},
		{"-nodes", "2", "-batch", "4", "-iters", "-1"},
		{"-nodes", "2", "-batch", "4", "-iters", "0"},
		{"-lr", "NaN", "-iters", "2"},
		{"-lr", "-Inf", "-iters", "2"},
		{"-cg4", "-nodes", "2"},
		{"-cg4", "-overlap"},
		{"-cg4", "-batch", "6"},
		{"-nodes", "4", "-iters", "2", "-batch", "4", "-io", "-stripes", "64"},
		{"-io", "-stripes", "-3"},
		{"-bucket-kb", "-5"},
		{"-io", "-io-batch-kb", "-1"},
		{"-bucket-kb", "9007199254740992", "-nodes", "2", "-overlap"},
		{"-bucket-kb", "9223372036854775807", "-nodes", "2", "-overlap"},
		{"-io", "-io-batch-kb", "9007199254740992", "-nodes", "2"},
	} {
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
		if strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "swtrain: ") || strings.Contains(stderr, "goroutine") {
			t.Errorf("%v: stderr is not a one-line message:\n%s", args, stderr)
		}
	}
}

// TestRemovedModeFlags: the backend alone picks the node a pass runs
// on, so -hostmath and -timeline are unknown flags — a usage error.
func TestRemovedModeFlags(t *testing.T) {
	for _, flag := range []string{"-hostmath", "-timeline"} {
		stdout, stderr, exit, err := run(flag, "-nodes", "2", "-iters", "1", "-batch", "4")
		if err != nil {
			t.Fatalf("%s: %v", flag, err)
		}
		if exit != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: "+flag) {
			t.Errorf("%s: exit %d, stdout %q, stderr:\n%s", flag, exit, stdout, stderr)
		}
	}
}

// TestUnfiredFaultFails: a fault plan naming a rank the world does not
// have can never fire, so the run must not report a clean recovery.
func TestUnfiredFaultFails(t *testing.T) {
	_, stderr, exit, err := run("-nodes", "2", "-iters", "2", "-batch", "4", "-faultplan", "5@0:forward")
	if err != nil {
		t.Fatal(err)
	}
	if exit != 1 || !strings.Contains(stderr, "swtrain: 1 planned fault(s) never fired") {
		t.Errorf("exit %d, stderr:\n%s", exit, stderr)
	}
}

// TestBarrierReportsOneBucket: a barrier run flushes the whole packed
// vector once a step, whatever -bucket-kb says, so the engine summary,
// the plan audit's active line and its last-step table all report that
// one bucket — not the overlap layout the cap would have cut.
func TestBarrierReportsOneBucket(t *testing.T) {
	stdout, stderr, exit, err := run("-nodes", "4", "-iters", "2", "-batch", "4", "-bucket-kb", "1", "-explain-plan")
	if err != nil || exit != 0 {
		t.Fatalf("exit %d, err %v, stderr:\n%s", exit, err, stderr)
	}
	var summary, active string
	rows := 0 // last-step table rows: "  <bucket index> <lo> <hi> ..."
	for _, line := range strings.Split(stdout, "\n") {
		switch {
		case strings.HasPrefix(line, "collective engine: "):
			summary = line
		case strings.HasPrefix(line, "active: "):
			active = line
		case len(line) > 2 && strings.HasPrefix(line, "  ") && line[2] >= '0' && line[2] <= '9':
			rows++
		}
	}
	if !strings.Contains(summary, ", 1 buckets over ") {
		t.Errorf("engine summary does not report one bucket: %q", summary)
	}
	if !strings.Contains(active, ", 1 buckets over ") {
		t.Errorf("plan audit does not report one bucket: %q", active)
	}
	if rows != 1 {
		t.Errorf("last-step table has %d rows, want 1:\n%s", rows, stdout)
	}
}

func TestGoodRun(t *testing.T) {
	stdout, stderr, exit, err := run("-nodes", "4", "-iters", "2", "-batch", "4")
	if err != nil || exit != 0 {
		t.Fatalf("exit %d, err %v, stderr:\n%s", exit, err, stderr)
	}
	for _, want := range []string{"replicas consistent across 4 nodes", "cluster runtime: 4 simulated nodes"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}

// TestStrayArgumentExitsTwo: swtrain takes no positional arguments, so a
// stray one is refused with usage on stderr rather than ignored.
func TestStrayArgumentExitsTwo(t *testing.T) {
	stdout, stderr, exit, err := run("-nodes", "2", "bogus")
	if err != nil {
		t.Fatal(err)
	}
	if exit != 2 || stdout != "" {
		t.Errorf("exit %d with %d bytes on stdout, want exit 2 and none", exit, len(stdout))
	}
	if !strings.HasPrefix(stderr, "swtrain: unexpected argument \"bogus\"\n") || !strings.Contains(stderr, "Usage of ") {
		t.Errorf("stderr does not name the argument and print usage:\n%s", stderr)
	}
}

// TestCG4ReadTotalsInMicroseconds: the -cg4 -io run's closing line
// prints its read totals in µs, as the per-iteration lines do: forty
// 1.02 µs reads, the first exposed. In seconds to four places they
// read 0.0000s.
func TestCG4ReadTotalsInMicroseconds(t *testing.T) {
	stdout, stderr, exit, err := run("-cg4", "-batch", "8", "-iters", "40", "-io")
	if err != nil || exit != 0 {
		t.Fatalf("exit %d, err %v, stderr:\n%s", exit, err, stderr)
	}
	if want := "input pipeline: modeled read total 40.96us, exposed 1.02us (single reader)\n"; !strings.HasSuffix(stdout, want) {
		t.Errorf("output does not end in %q:\n%s", want, stdout)
	}
}
