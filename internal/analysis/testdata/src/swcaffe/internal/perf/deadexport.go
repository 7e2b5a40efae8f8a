// Package perf is a fixture: exported identifiers for the deadexport
// analyzer's golden test. cmd/tool uses Square; everything else here
// is reached by nothing outside a _test.go file.
package perf

// Dead is referenced by no other declaration. Its own method's
// receiver does not count as a reference.
type Dead struct{} // finding

func (d Dead) area() float64 { return 0 }

// TestOnly is read only from deadexport_test.go, which the loader
// never parses.
var TestOnly = 2 // finding

// Square is used by cmd/tool.
type Square struct{}

// Unreached is a function nothing calls: whether a program links it is
// the linker's question, not this analyzer's.
func Unreached() int { return 1 } // no finding

// Kept carries an explained exception.
//
//swvet:ignore deadexport: fixture; a surviving test needs it as an oracle
const Kept = 3
