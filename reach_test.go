package swcaffe

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllow names the functions under internal/ that no program links
// but another package's tests call, each with the package whose tests
// call it. Keys are linker symbols without the "swcaffe/internal/"
// prefix. A function only its own package's tests call belongs in that
// package's _test.go files instead.
var reachAllow = map[string]string{
	"allreduce.SetHierPhaseHook": "train",
	"allreduce.HierChunkBounds":  "collective, train",
	"swnode.(*Event).CGIndex":    "train",
	"swnode.(*Event).SimStart":   "swdnn",
	"swnode.(*Event).SimEnd":     "swdnn",
	"tensor.(*Tensor).At":        "core",
	"tensor.(*Tensor).Dot":       "core",
	"tensor.(*Tensor).MaxAbs":    "core, models",
	"tensor.AllClose":            "core",
}

const internalPrefix = "swcaffe/internal/"

// TestEveryInternalFunctionIsLinked builds every main package of the
// module, plus a stub that calls each exported function of this
// package, for amd64 and arm64 with inlining off, and reads the
// binaries' symbol tables. Every function declared in a non-test file
// under internal/ must be linked into some program on some
// architecture, unless reachAllow names it; an allowlisted function
// must be declared and linked into none.
func TestEveryInternalFunctionIsLinked(t *testing.T) {
	declared := declaredFuncs(t, "internal")
	mains, overlay := reachPrograms(t)
	linked := map[string]string{}
	for _, arch := range []string{"amd64", "arm64"} {
		for sym, raw := range linkedSymbols(t, arch, mains, overlay) {
			linked[sym] = raw
		}
	}
	if missing := unmatchedShapes(declared, linked); len(missing) > 0 {
		t.Fatalf("no declared function matched a linked %s: the symbol mapping is broken", strings.Join(missing, ", "))
	}
	for _, p := range reachProblems(declared, linked, reachAllow) {
		t.Error(p)
	}
}

// TestReachProblems checks the diff on synthetic sets.
func TestReachProblems(t *testing.T) {
	declared := map[string]string{
		"a.Used":     "internal/a/a.go:3",
		"a.Dead":     "internal/a/a.go:5",
		"a.Seam":     "internal/a/a.go:7",
		"a.(*T).Hot": "internal/a/a.go:9",
	}
	linked := map[string]string{"a.Used": "a.Used", "a.(*T).Hot": "a.(*T).Hot"}
	for _, tc := range []struct {
		name  string
		allow map[string]string
		want  []string
	}{
		{"clean", map[string]string{"a.Seam": "b", "a.Dead": "c"}, nil},
		{"unlinked", map[string]string{"a.Seam": "b"}, []string{
			"internal/a/a.go:5: a.Dead is linked into no program: delete it, move it into its package's tests, or allowlist the other package whose tests call it",
		}},
		{"linked allowlisted", map[string]string{"a.Seam": "b", "a.Dead": "c", "a.(*T).Hot": "d"}, []string{
			"internal/a/a.go:9: a.(*T).Hot is allowlisted for the tests of d but a program links it: remove the program's call, or drop the entry",
		}},
		{"stale", map[string]string{"a.Seam": "b", "a.Dead": "c", "a.Gone": "d"}, []string{
			"a.Gone is allowlisted for the tests of d but no longer declared: drop the entry",
		}},
	} {
		got := reachProblems(declared, linked, tc.allow)
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s: got\n%s\nwant\n%s", tc.name, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
	if len(reachAllow) > 10 {
		t.Errorf("reachAllow has %d entries; at most ten test seams may stay unlinked", len(reachAllow))
	}
}

// TestStripInstantiation: the symbol of a generic instantiation maps
// to its declaration, brackets nested or not.
func TestStripInstantiation(t *testing.T) {
	for in, want := range map[string]string{
		"swcaffe/internal/a.F":                                 "swcaffe/internal/a.F",
		"swcaffe/internal/a.F[go.shape.float32]":               "swcaffe/internal/a.F",
		"swcaffe/internal/a.(*S[go.shape.[]int]).M":            "swcaffe/internal/a.(*S).M",
		"swcaffe/internal/a.S[go.shape.struct { X [2]int }].M": "swcaffe/internal/a.S.M",
	} {
		if got := stripInstantiation(in); got != want {
			t.Errorf("stripInstantiation(%q) = %q, want %q", in, got, want)
		}
	}
}

// reachProblems lists, sorted, every unlinked function reachAllow does
// not name, every allowlisted function a program links, and every
// allowlisted function no longer declared. declared maps a symbol to
// its file:line.
func reachProblems(declared, linked, allow map[string]string) []string {
	var out []string
	for sym, pos := range declared {
		_, isLinked := linked[sym]
		pkg, allowed := allow[sym]
		switch {
		case !isLinked && !allowed:
			out = append(out, pos+": "+sym+" is linked into no program: delete it, move it into its package's tests, or allowlist the other package whose tests call it")
		case isLinked && allowed:
			out = append(out, pos+": "+sym+" is allowlisted for the tests of "+pkg+" but a program links it: remove the program's call, or drop the entry")
		}
	}
	for sym, pkg := range allow {
		if _, ok := declared[sym]; !ok {
			out = append(out, sym+" is allowlisted for the tests of "+pkg+" but no longer declared: drop the entry")
		}
	}
	sort.Strings(out)
	return out
}

// unmatchedShapes names each symbol shape (plain function, pointer- and
// value-receiver method, generic instantiation) that no declared
// function matched, so a broken name mapping cannot pass vacuously.
func unmatchedShapes(declared, linked map[string]string) []string {
	seen := map[string]bool{}
	for sym := range declared {
		raw, ok := linked[sym]
		if !ok {
			continue
		}
		_, name, _ := strings.Cut(sym, ".")
		switch {
		case strings.HasPrefix(name, "(*"):
			seen["pointer-receiver method"] = true
		case strings.Contains(name, "."):
			seen["value-receiver method"] = true
		default:
			seen["plain function"] = true
		}
		if raw != sym {
			seen["generic instantiation"] = true
		}
	}
	var missing []string
	for _, shape := range []string{"plain function", "pointer-receiver method", "value-receiver method", "generic instantiation"} {
		if !seen[shape] {
			missing = append(missing, shape)
		}
	}
	return missing
}

// declaredFuncs maps each function and method declared in a non-test
// file under root (skipping testdata) to its file:line, keyed by its
// linker symbol without the "swcaffe/internal/" prefix. init functions
// are left out: they cannot be referenced, and run whenever their
// package is linked.
func declaredFuncs(t *testing.T, root string) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = receiverName(fd.Recv.List[0].Type) + "." + name
			}
			out[pkg+"."+name] = filepath.ToSlash(path) + ":" + strconv.Itoa(fset.Position(fd.Pos()).Line)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("no functions declared under %s", root)
	}
	return out
}

// receiverName spells a receiver type as the linker does, type
// parameters dropped: "(*T)" for a pointer, "T" for a value.
func receiverName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return receiverName(x.X)
	case *ast.StarExpr:
		return "(*" + receiverName(x.X) + ")"
	case *ast.IndexExpr:
		return receiverName(x.X)
	case *ast.IndexListExpr:
		return receiverName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

// reachPrograms lists the module's main packages plus ./reachstub, the
// facade stub, and writes the -overlay file that supplies the stub, so
// nothing is written into the tree.
func reachPrograms(t *testing.T) (mains []string, overlay string) {
	t.Helper()
	out, err := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	mains = strings.Fields(string(out))
	if len(mains) == 0 {
		t.Fatal("go list found no main packages")
	}
	dir := t.TempDir()
	stub := filepath.Join(dir, "stub.go")
	writeStub(t, stub)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	ov, _ := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(wd, "reachstub", "main.go"): stub},
	})
	overlay = filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlay, ov, 0o644); err != nil {
		t.Fatal(err)
	}
	return append(mains, "./reachstub"), overlay
}

// linkedSymbols builds the programs for GOARCH=arch with inlining off
// and returns the text symbols under internal/, instantiation brackets
// stripped, each mapped to one raw symbol it came from.
func linkedSymbols(t *testing.T, arch string, mains []string, overlay string) map[string]string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bin") + string(filepath.Separator)
	args := append([]string{"build", "-overlay", overlay, "-gcflags=all=-l", "-o", bin}, mains...)
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOARCH="+arch, "CGO_ENABLED=0")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("GOARCH=%s go build: %v\n%s", arch, err, out)
	}
	bins, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != len(mains) {
		t.Fatalf("GOARCH=%s: %d binaries for %d programs", arch, len(bins), len(mains))
	}
	syms := map[string]string{}
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, b.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", b.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			fields := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(fields) != 3 || (fields[1] != "T" && fields[1] != "t") || !strings.HasPrefix(fields[2], internalPrefix) {
				continue
			}
			// An assembly body's symbol carries its ABI: "f32.add.abi0".
			raw := strings.TrimSuffix(strings.TrimPrefix(fields[2], internalPrefix), ".abi0")
			syms[stripInstantiation(raw)] = raw
		}
	}
	return syms
}

// writeStub writes a main package that references every exported
// function of the root package, so the facade counts as a program.
func writeStub(t *testing.T, path string) {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var refs []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				refs = append(refs, "swcaffe."+fd.Name.Name)
			}
		}
	}
	if len(refs) == 0 {
		t.Fatal("the root package exports no functions")
	}
	src := "package main\n\nimport \"swcaffe\"\n\nvar sink []any\n\nfunc main() { sink = append(sink, " + strings.Join(refs, ", ") + ") }\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// stripInstantiation drops every bracketed type-argument list from a
// symbol: "a.(*S[go.shape.int]).M" is "a.(*S).M".
func stripInstantiation(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
