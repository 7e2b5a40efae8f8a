package analysis

import (
	"path/filepath"
	"slices"
	"strings"
)

// Runner drives a set of analyzers over the packages of one module.
type Runner struct {
	// Root is the module root directory; Module its import path.
	Root   string
	Module string
	// Analyzers defaults to All() when nil.
	Analyzers []*Analyzer
}

// Result is one run's outcome. Findings holds only unsuppressed
// diagnostics, sorted deterministically, with filenames relative to
// Root; Suppressed counts the findings silenced by well-formed
// //swvet:ignore comments.
type Result struct {
	Findings   []Finding
	Suppressed int
}

// Run analyzes every package whose import path has one of the given
// prefixes ("" or the module path means the whole module).
func (r *Runner) Run(prefixes ...string) (*Result, error) {
	analyzers := r.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	ld := newLoader(r.Root, r.Module)
	paths, err := ld.discover()
	if err != nil {
		return nil, err
	}

	// Module-wide analyzers see every package, whatever the prefixes.
	var refs *refIndex
	if slices.ContainsFunc(analyzers, func(a *Analyzer) bool { return a.needsRefs }) {
		all := make([]*pkgInfo, 0, len(paths))
		for _, path := range paths {
			pi, err := ld.load(path)
			if err != nil {
				return nil, err
			}
			all = append(all, pi)
		}
		refs = buildRefs(all)
	}

	var raw []Finding
	res := &Result{}
	for _, path := range paths {
		if !matchesAny(path, r.Module, prefixes) {
			continue
		}
		pi, err := ld.load(path)
		if err != nil {
			return nil, err
		}

		// Per-file suppression tables; malformed suppressions are
		// findings in their own right and cannot be silenced.
		sups := map[string][]*suppression{}
		for _, f := range pi.files {
			fs, malformed := fileSuppressions(ld.fset, f)
			if len(fs) > 0 {
				name := ld.fset.Position(f.Pos()).Filename
				sups[name] = fs
			}
			raw = append(raw, malformed...)
		}

		for _, a := range analyzers {
			pass := &Pass{
				Fset:     ld.fset,
				Files:    pi.files,
				Path:     pi.path,
				Pkg:      pi.pkg,
				Info:     pi.info,
				analyzer: a.Name,
				refs:     refs,
				report: func(f Finding) {
					for _, s := range sups[f.Pos.Filename] {
						if s.analyzer == f.Analyzer && s.target() == f.Pos.Line {
							s.used = true
							res.Suppressed++
							return
						}
					}
					raw = append(raw, f)
				},
			}
			a.Run(pass)
		}
	}

	for i := range raw {
		if rel, err := filepath.Rel(r.Root, raw[i].Pos.Filename); err == nil {
			raw[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
	SortFindings(raw)
	res.Findings = raw
	return res, nil
}

func matchesAny(path, module string, prefixes []string) bool {
	if len(prefixes) == 0 {
		return true
	}
	for _, p := range prefixes {
		p = strings.TrimSuffix(p, "/...")
		p = strings.TrimSuffix(p, "/")
		if p == "" || p == "." || p == module || path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
