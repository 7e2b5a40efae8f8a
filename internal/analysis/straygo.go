package analysis

import (
	"go/ast"
	"strings"
)

// pooledRuntimes are the packages allowed to launch goroutines: they
// own worker pools with deterministic join points (the per-node stream
// schedulers, the simnet rank runner). Everywhere else a bare `go`
// statement is the leak class that the CPE engine and simnet's ghost
// receivers each once fixed by hand: a goroutine that outlives its Run
// and corrupts the next one.
// The discrete-event scheduler (internal/des) and the CPE mesh
// (internal/sw26010, whose launches run their supersteps on the calling
// goroutine) are deliberately NOT here: both run single-threaded, so a
// `go` statement inside either is a finding, not a pooled runtime's
// business.
var pooledRuntimes = map[string]bool{
	"swnode": true,
	"simnet": true,
}

// Straygo flags goroutine launches outside the pooled runtimes and
// cmd/ binaries.
func Straygo() *Analyzer {
	return &Analyzer{
		Name: "straygo",
		Doc:  "flag go statements outside the pooled runtimes (swnode, simnet) and cmd/",
		Run:  runStraygo,
	}
}

func runStraygo(p *Pass) {
	module := moduleOf(p.Path)
	if strings.HasPrefix(p.Path, module+"/cmd/") {
		return
	}
	if name, ok := strings.CutPrefix(p.Path, module+"/internal/"); ok && pooledRuntimes[name] {
		return
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(), "goroutine launched outside the pooled runtimes: route the work through swnode/simnet, or suppress with the join-point that bounds its lifetime")
			}
			return true
		})
	}
}
