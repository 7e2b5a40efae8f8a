package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Deadexport flags exported types, vars and consts declared under
// internal/ that no non-test file of the module references. cmd/,
// bench/, examples/ and the root facade all count as references;
// _test.go files do not, because the loader never parses them. A
// declaration's references to itself (a method's receiver type, a var
// initialized from itself) do not count either.
//
// Functions and methods are not its business: the module root's
// TestEveryInternalFunctionIsLinked asks the linker which of them some
// program reaches, which also sees through interface dispatch.
func Deadexport() *Analyzer {
	return &Analyzer{
		Name:      "deadexport",
		Doc:       "flag exported internal/ types, vars and consts that no non-test file in the module references",
		Run:       runDeadexport,
		needsRefs: true,
	}
}

func runDeadexport(p *Pass) {
	if !strings.HasPrefix(p.Path, moduleOf(p.Path)+"/internal/") || p.refs == nil {
		return
	}
	check := func(id *ast.Ident) {
		obj := p.Info.Defs[id]
		if obj == nil || !id.IsExported() || p.refs.used[obj] {
			return // unknown objects stay silent
		}
		p.Reportf(id.Pos(), "%s.%s is exported but no non-test file in the module references it: delete it with its tests, or suppress with the test, golden or role that keeps it", p.Pkg.Name(), id.Name)
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					check(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						check(id)
					}
				}
			}
		}
	}
}

// refIndex is what the module's non-test files reference, by object
// identity.
type refIndex struct {
	used map[types.Object]bool
}

// buildRefs indexes every use in the given packages. A top-level
// declaration's uses of what it declares itself, and a method's uses of
// its receiver's type, do not count.
func buildRefs(pkgs []*pkgInfo) *refIndex {
	idx := &refIndex{used: map[types.Object]bool{}}
	for _, pi := range pkgs {
		for _, file := range pi.files {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						idx.add(pi.info, spec)
					}
				} else {
					idx.add(pi.info, decl)
				}
			}
		}
	}
	return idx
}

// add indexes the uses in one top-level function or spec.
func (idx *refIndex) add(info *types.Info, decl ast.Node) {
	self := map[types.Object]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		fn, ok := info.Defs[d.Name].(*types.Func)
		if !ok {
			break
		}
		self[fn] = true
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				self[named.Obj()] = true
			}
		}
	case *ast.TypeSpec:
		self[info.Defs[d.Name]] = true
	case *ast.ValueSpec:
		for _, id := range d.Names {
			self[info.Defs[id]] = true
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || self[obj] {
			return true
		}
		idx.used[obj] = true
		return true
	})
}
