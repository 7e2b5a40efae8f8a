// Package experiments regenerates every table and figure of the
// paper's evaluation (Sec. VI) plus the ablations and sweeps that
// follow them in cmd/swbench's artifact list (io, pack, gemm,
// allreduce, bn, sum, mapping, batch). Each generator writes a
// plain-text rendition of the artifact to an io.Writer and returns the
// structured data so tests can assert the paper's qualitative claims
// (winners, crossovers, orderings) mechanically.
package experiments

import (
	"fmt"
	"io"
	"sync"
	"text/tabwriter"
)

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// parallelFor fans fn(0..n-1) out across goroutines and joins. The
// generators use it to compute independent rows concurrently (each row
// is a pure planner/cost-model evaluation backed by the memoized plan
// cache) and then render in index order, so output stays byte-
// identical to the serial loops. A panic on any index is re-raised on
// the caller after every goroutine has finished.
func parallelFor(n int, fn func(i int)) {
	if n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	panics := make(chan any, n)
	for i := 0; i < n; i++ {
		//swvet:ignore straygo: experiment fan-out; joined by wg.Wait immediately below, panics re-raised
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics <- r
				}
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
	select {
	case r := <-panics:
		panic(r)
	default:
	}
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// fmtTime renders seconds compactly.
func fmtTime(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 1e-3:
		return fmt.Sprintf("%.1fus", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

func fmtGBps(bytesPerSec float64) string {
	return fmt.Sprintf("%.2f", bytesPerSec/1e9)
}
