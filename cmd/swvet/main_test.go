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

// bin is the swvet binary, built once for the whole package.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "swvet-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "swvet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// module writes a one-file module named swcaffe (the path the analyzers'
// package rules are written against) holding src at rel, and returns
// its root.
func module(t *testing.T, rel string, src []byte) string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module swcaffe\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// run runs swvet in dir.
func run(dir string, args ...string) (stdout, stderr string, exit int, err error) {
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &o, &e
	err = cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		exit, err = ee.ExitCode(), nil
	}
	return o.String(), e.String(), exit, err
}

func TestCleanPackageExitsZero(t *testing.T) {
	root := module(t, "internal/clean/clean.go", []byte("package clean\n\nfunc double(x int) int { return 2 * x }\n"))
	stdout, stderr, exit, err := run(root, "./...")
	if err != nil || exit != 0 {
		t.Fatalf("exit %d, err %v, stdout:\n%s\nstderr:\n%s", exit, err, stdout, stderr)
	}
	if stdout != "swvet: 0 unsuppressed finding(s), 0 suppressed\n" {
		t.Errorf("stdout is not the clean summary:\n%s", stdout)
	}
}

// TestFindingExitsOne runs swvet over the analyzers' wallclock fixture
// placed in a module of its own: the clock reads are findings, named by
// rule, and the exit status is 1.
func TestFindingExitsOne(t *testing.T) {
	src, err := os.ReadFile("../../internal/analysis/testdata/src/swcaffe/internal/collective/wallclock.go")
	if err != nil {
		t.Fatal(err)
	}
	root := module(t, "internal/collective/wallclock.go", src)
	stdout, stderr, exit, err := run(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if exit != 1 {
		t.Errorf("exit %d, want 1; stderr:\n%s", exit, stderr)
	}
	if !strings.Contains(stdout, "internal/collective/wallclock.go:13:11: wallclock: time.Now reads the host clock") {
		t.Errorf("the time.Now finding is missing from stdout:\n%s", stdout)
	}
}

func TestUnknownFlagExitsTwo(t *testing.T) {
	stdout, stderr, exit, err := run(".", "-bogus")
	if err != nil {
		t.Fatal(err)
	}
	if exit != 2 {
		t.Errorf("exit %d, want 2", exit)
	}
	if stdout != "" || !strings.Contains(stderr, "flag provided but not defined: -bogus") || !strings.Contains(stderr, "usage: swvet") {
		t.Errorf("want the flag error and usage on stderr only; stdout:\n%s\nstderr:\n%s", stdout, stderr)
	}
}
