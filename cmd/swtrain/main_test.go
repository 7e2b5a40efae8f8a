package main

import (
	"bytes"
	"errors"
	"flag"
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
// learning rate, a negative supernode size or checkpoint interval, a
// stripe count the 32-array store cannot hold, negative sizes and the
// -cg4 conflicts are refused before any work, with one stderr line
// that names the one flag at fault — not with a divide-by-zero panic,
// silently, or with exit 1.
func TestBadFlagsExitTwo(t *testing.T) {
	const maxKB = "9007199254740991"
	for _, tc := range []struct {
		args []string
		want string // the stderr line after "swtrain: "
	}{
		{[]string{"-nodes", "2", "-classes", "0"}, "-classes must be at least 1"},
		{[]string{"-q", "-3"}, "-q must not be negative"},
		{[]string{"-nodes", "0"}, "-nodes must be at least 1"},
		{[]string{"-batch", "0"}, "-batch must be at least 1"},
		{[]string{"-nodes", "2", "-batch", "4", "-iters", "-1"}, "-iters must be at least 1"},
		{[]string{"-nodes", "2", "-batch", "4", "-iters", "0"}, "-iters must be at least 1"},
		{[]string{"-lr", "NaN", "-iters", "2"}, "-lr must be finite"},
		{[]string{"-lr", "-Inf", "-iters", "2"}, "-lr must be finite"},
		{[]string{"-cg4", "-nodes", "2"}, "-cg4 is single-node; it conflicts with -nodes"},
		{[]string{"-cg4", "-overlap"}, "-cg4 is single-node; it conflicts with -overlap"},
		{[]string{"-cg4", "-batch", "6"}, "-cg4 needs -batch divisible by 4"},
		{[]string{"-nodes", "4", "-iters", "2", "-batch", "4", "-io", "-stripes", "64"}, "-stripes must be in [0, 32], the disk arrays the store stripes over"},
		{[]string{"-io", "-stripes", "-3"}, "-stripes must be in [0, 32], the disk arrays the store stripes over"},
		{[]string{"-bucket-kb", "-5"}, "-bucket-kb must not be negative"},
		{[]string{"-io", "-io-batch-kb", "-1"}, "-io-batch-kb must not be negative"},
		{[]string{"-bucket-kb", "9007199254740992", "-nodes", "2", "-overlap"}, "-bucket-kb must be at most " + maxKB},
		{[]string{"-bucket-kb", "9223372036854775807", "-nodes", "2", "-overlap"}, "-bucket-kb must be at most " + maxKB},
		{[]string{"-io", "-io-batch-kb", "9007199254740992", "-nodes", "2"}, "-io-batch-kb must be at most " + maxKB},
		{[]string{"-nodes", "2", "-iters", "2", "-checkpoint-every", "-2"}, "-checkpoint-every must not be negative"},
		{[]string{"-nodes", "1", "-metrics"}, "-metrics is a multi-node flag"},
		{[]string{"-stripes", "3"}, "-stripes needs -io"},
	} {
		stdout, stderr, exit, err := run(tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if exit != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, exit)
		}
		if stdout != "" {
			t.Errorf("%v: printed %d bytes to stdout before refusing", tc.args, len(stdout))
		}
		if want := "swtrain: " + tc.want + "\n"; stderr != want {
			t.Errorf("%v: stderr %q, want %q", tc.args, stderr, want)
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

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current swtrain")

// TestTranscriptGolden pins the whole stdout of three multi-node runs,
// -metrics block included, at GOMAXPROCS 1 and at the default: README's
// example, an elastic run that loses rank 3 mid-flush and continues on
// seven nodes, and an input-pipeline run with an auto-selected plan.
// Regenerate with -update only for an intended change of output.
func TestTranscriptGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"readme", []string{"-nodes", "8", "-overlap", "-alg", "hier", "-q", "4", "-bucket-kb", "2", "-iters", "3", "-metrics", "-explain-plan"}},
		{"fault", []string{"-nodes", "8", "-iters", "6", "-batch", "4", "-overlap", "-alg", "auto", "-faultplan", "3@2:flush-bucket-1", "-metrics"}},
		{"io", []string{"-nodes", "4", "-iters", "3", "-batch", "4", "-io", "-alg", "auto", "-metrics"}},
	} {
		path := filepath.Join("testdata", tc.name+".golden")
		for _, procs := range []string{"", "1"} {
			var o, e bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
			cmd.Stdout, cmd.Stderr = &o, &e
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s GOMAXPROCS=%q: %v, stderr:\n%s", tc.name, procs, err, e.String())
			}
			if *updateGolden && procs == "" {
				if err := os.WriteFile(path, o.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got := o.String(); got != string(want) {
				t.Errorf("%s GOMAXPROCS=%q: stdout differs from %s:\n%s", tc.name, procs, path, got)
			}
		}
	}
}
