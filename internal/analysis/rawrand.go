package analysis

import "strings"

// Rawrand forbids math/rand in every non-test file. math/rand's
// generators hide unbounded internal state (Intn rejection-samples a
// data-dependent number of draws), so "number of calls" does not name
// a stream position; everything draws from internal/detrand instead,
// the counted splitmix64 stream whose k-th draw is a pure function of
// (seed, k).
func Rawrand() *Analyzer {
	return &Analyzer{
		Name: "rawrand",
		Doc:  "forbid math/rand; use internal/detrand",
		Run:  runRawrand,
	}
}

func runRawrand(p *Pass) {
	for _, file := range p.Files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				p.Reportf(imp.Pos(), "import of %s: randomness must flow through internal/detrand's counted splitmix64 stream", path)
			}
		}
	}
}
