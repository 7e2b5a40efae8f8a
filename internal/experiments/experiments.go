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
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"text/tabwriter"
)

// tabs holds idle table writers, which keep their buffers across Init.
// Unlike a sync.Pool, no garbage collection or race detector thins it.
// A generator holds one table at a time, so 16 covers the generators a
// caller runs at once; a writer handed back to a full list is dropped.
var tabs = make(chan *tabwriter.Writer, 16)

// table is a writer from tabs. Its one Flush hands the writer back, aimed
// at io.Discard so as not to keep w alive: nothing may write to a table
// once it is flushed.
type table struct{ *tabwriter.Writer }

func newTab(w io.Writer) table {
	select {
	case tw := <-tabs:
		return table{tw.Init(w, 2, 4, 2, ' ', 0)}
	default:
		return table{tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
	}
}

func (t table) Flush() error {
	err := t.Writer.Flush()
	select {
	case tabs <- t.Init(io.Discard, 2, 4, 2, ' ', 0):
	default:
	}
	return err
}

// parallelFor runs fn(0..n-1) on k = min(n, GOMAXPROCS) workers — the
// caller and k-1 goroutines — which take indices from a shared counter,
// and joins them. The generators use it to compute independent rows
// concurrently (a planner/cost-model evaluation backed by the memoized
// plan cache, or a funcscale tier) and then render in index order; each
// fn(i) writes only row i, so output stays byte-identical to the serial
// loops whatever the split. A warm row is a plan-cache lookup, so
// goroutines beyond the cores add scheduling and live memory rather
// than throughput; a cold row (set-up, a process's first swbench) still
// keeps every core busy. A funcscale tier's arms do not run here: one
// at a time, each reuses the views the trainer before it closed
// (functionalSweepRows). Every index
// runs even if some panic; once all workers are joined, the panic of the
// lowest failed index is re-raised on the caller.
func parallelFor(n int, fn func(i int)) {
	panics := make([]any, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			func() {
				defer func() { panics[i] = recover() }()
				fn(i)
			}()
		}
	}
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		//swvet:ignore straygo: experiment fan-out; joined by wg.Wait immediately below, the lowest failed index re-raised
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// appendFixed appends v with prec digits after the decimal point, the
// bytes fmt's "%.*f" gives, but through strconv's 'e' format: Go formats
// a fixed number of significant digits with Ryū (ryuFtoaFixed64, up to
// 18 digits) and every 'f' with a precision by multiprecision decimal
// arithmetic, several times slower. The fixed form of |v| keeps
// d = e+1+prec significant digits, e being its decimal exponent, so the
// 'e' form at d digits holds the same digits and only the point moves.
// A rounding carry (9.995 at prec 2) gives a 1 and zeros one exponent
// up, and takes one more zero. Everything else — d < 1 or d > 18, ±0,
// ±Inf, NaN — is formatted by 'f' itself.
func appendFixed(dst []byte, v float64, prec int) []byte {
	a := math.Abs(v)
	if prec < 0 || !(a > 0 && a <= math.MaxFloat64) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	// The guess is a's decimal exponent or one above it, never below: the
	// nudge outweighs Log10's error, so 1000 does not read as 2.99….
	e := int(math.Floor(math.Log10(a) + 1e-9))
	var buf [32]byte
	for {
		d := e + 1 + prec
		if d < 1 || d > 18 {
			return strconv.AppendFloat(dst, v, 'f', prec, 64)
		}
		s := strconv.AppendFloat(buf[:0], a, 'e', d-1, 64)
		k := 1 // s is "De±XX", or "D.DDDe±XX" with d digits when d > 1
		if d > 1 {
			k = d + 1
		}
		x := 0
		for _, c := range s[k+2:] {
			x = 10*x + int(c-'0')
		}
		if s[k+1] == '-' {
			x = -x
		}
		if x == e-1 { // the guess was one high: a < 10^e
			e--
			continue
		}
		// x is e, or e+1 after a carry, where the digits are a 1 and
		// zeros and the fixed form takes one zero more than s holds.
		digits := s[:k]
		if d > 1 {
			digits = append(s[:1], s[2:k]...)
		}
		if v < 0 {
			dst = append(dst, '-')
		}
		point := x + 1 // digits before the decimal point
		for n := len(digits); n < point+prec; n++ {
			digits = append(digits, '0')
		}
		if point <= 0 {
			dst = append(dst, '0')
		} else {
			dst = append(dst, digits[:point]...)
			digits = digits[point:]
		}
		if prec > 0 {
			dst = append(dst, '.')
			for ; point < 0; point++ {
				dst = append(dst, '0')
			}
			dst = append(dst, digits...)
		}
		return dst
	}
}

// fixed is appendFixed's string form: fmt.Sprintf("%.*f", prec, v).
func fixed(v float64, prec int) string {
	var buf [32]byte
	return string(appendFixed(buf[:0], v, prec))
}

// fmtTime renders seconds compactly: microseconds below 1 ms,
// milliseconds below 1 s, else seconds, each as "%.Nf" through
// appendFixed.
func fmtTime(s float64) string {
	var buf [32]byte
	var b []byte
	switch {
	case s <= 0:
		return "-"
	case s < 1e-3:
		b = append(appendFixed(buf[:0], s*1e6, 1), "us"...)
	case s < 1:
		b = append(appendFixed(buf[:0], s*1e3, 2), "ms"...)
	default:
		b = append(appendFixed(buf[:0], s, 3), 's')
	}
	return string(b)
}

func fmtGBps(bytesPerSec float64) string {
	return fixed(bytesPerSec/1e9, 2)
}
