// Package analysis is swcaffe's determinism-contract static
// analyzer ("swvet"). The repo's reproducibility claim — bit-identical
// results across execution paths — rests on a handful of invariants
// that every PR so far has defended by hand review: simulated time
// never reads the wall clock, randomness flows through the counted
// splitmix64 sampler, map iteration never feeds deterministic output,
// goroutines live only inside the pooled runtimes, and library code
// never prints. This package mechanizes those contracts as analyzers
// over go/ast + go/types, stdlib-only, so violations fail `make check`
// instead of surfacing weeks later as flaky bit-identity goldens. One
// more analyzer, deadexport, holds a design line rather than a
// determinism one: no exported internal/ identifier outlives its last
// non-test caller.
//
// Findings are suppressed, one line at a time, with an annotated
// comment carrying a mandatory reason:
//
//	//swvet:ignore straygo: a pass pool worker, which close stops and waits for
//	go func() {
//
// A suppression without an analyzer name or a reason is itself a
// finding — the contract is "every exception is explained", not
// "exceptions are free".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic: a position, the analyzer that raised it,
// and a human-readable message.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line:col form the
// golden tests pin byte-for-byte.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	// Path is the package's import path (e.g.
	// "swcaffe/internal/collective"); analyzers scope their contracts
	// by it.
	Path string
	Pkg  *types.Package
	// Info holds use/type resolution for the package. Type-check
	// errors are tolerated (Info is then partial); analyzers must
	// treat missing entries as "unknown" and stay silent rather than
	// guess.
	Info *types.Info

	analyzer string
	report   func(Finding)
	refs     *refIndex // the module's non-test references, for analyzers that need them
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// PkgNameOf resolves an identifier to the import path of the package
// it names, or "" if it does not name an imported package. It prefers
// type information and falls back to matching the file's import
// table, so analyzers keep working on packages that failed to fully
// type-check.
func (p *Pass) PkgNameOf(file *ast.File, id *ast.Ident) string {
	if p.Info != nil {
		if obj, ok := p.Info.Uses[id]; ok {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Path()
			}
			return "" // a real object shadows any import name
		}
	}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}

// Analyzer is one named contract check.
type Analyzer struct {
	Name string
	// Doc is the one-line catalog entry shown by `swvet -catalog`.
	Doc string
	Run func(*Pass)

	needsRefs bool // the Runner indexes the whole module's references first
}

// All returns the full analyzer catalog in canonical order. The set
// of valid names for //swvet:ignore comments is derived from it, so a
// new analyzer becomes suppressible by being registered here.
func All() []*Analyzer {
	return []*Analyzer{
		Wallclock(),
		Rawrand(),
		Maporder(),
		Straygo(),
		Printless(),
		Deadexport(),
	}
}

// knownNames is the set of analyzer names a suppression may cite,
// including the framework's own "ignore" pseudo-analyzer.
func knownNames() map[string]bool {
	names := map[string]bool{}
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// SortFindings orders findings byte-deterministically: file, line,
// column, analyzer, message. Runner output and golden tests both rely
// on this being total.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
