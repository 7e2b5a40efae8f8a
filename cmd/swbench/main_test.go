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

// bin is the swbench binary, built once for the whole package.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "swbench-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "swbench")
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

// TestBadFlagsExitTwo: bad rank lists, a backend without a rank list
// and an unknown artifact are refused with exit 2 and their message on
// stderr, before any table is printed. The unknown-artifact message
// goes on to list every artifact, so only its start is pinned.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, c := range []struct {
		args   []string
		want   string
		prefix bool
	}{
		{[]string{"-p", "0,-4", "funcscale"}, "swbench: bad -p entry \"0\" (want a positive rank count)\n", false},
		{[]string{"-p", "abc", "funcscale"}, "swbench: bad -p entry \"abc\" (want a positive rank count)\n", false},
		{[]string{"-backend", "nope", "funcscale"}, "swbench: -backend nope requires an explicit -p rank list\n", false},
		{[]string{"nosuch"}, "swbench: unknown artifact \"nosuch\"\nknown: table1 figure2 ", true},
	} {
		stdout, stderr, exit, err := run(c.args...)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if exit != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, exit)
		}
		if stdout != "" {
			t.Errorf("%v: printed %d bytes to stdout before refusing", c.args, len(stdout))
		}
		if stderr != c.want && !(c.prefix && strings.HasPrefix(stderr, c.want)) {
			t.Errorf("%v: stderr %q, want %q", c.args, stderr, c.want)
		}
	}
}

func TestGoodRun(t *testing.T) {
	stdout, stderr, exit, err := run("table1")
	if err != nil || exit != 0 {
		t.Fatalf("exit %d, err %v, stderr:\n%s", exit, err, stderr)
	}
	if !strings.Contains(stdout, "=== Table I: Comparison of SW26010, K40m and KNL ===") {
		t.Errorf("Table I missing from the output:\n%s", stdout)
	}
}
