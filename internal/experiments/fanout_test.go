package experiments

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelForRaisesLowestFailedIndex: a fan-out with several failed
// indices runs every index exactly once and raises the lowest failed
// one's panic, whichever finished first. Index 3 sleeps before it
// panics, so 5 and 6 fail first on any worker count.
func TestParallelForRaisesLowestFailedIndex(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var ran [8]atomic.Int32
			var raised any
			func() {
				defer func() { raised = recover() }()
				parallelFor(len(ran), func(i int) {
					ran[i].Add(1)
					switch i {
					case 3:
						time.Sleep(20 * time.Millisecond)
						fallthrough
					case 5, 6:
						panic(fmt.Sprintf("index %d failed", i))
					}
				})
			}()
			if want := "index 3 failed"; raised != want {
				t.Errorf("raised %v, want %q", raised, want)
			}
			for i := range ran {
				if n := ran[i].Load(); n != 1 {
					t.Errorf("index %d ran %d times, want 1", i, n)
				}
			}
		})
	}
}

// TestParallelForRunsEachIndexOnce: without failures, every index of
// every size runs exactly once, on any worker count, including n = 0
// and n below the worker count.
func TestParallelForRunsEachIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 3, 100} {
			ran := make([]atomic.Int32, n)
			parallelFor(n, func(i int) { ran[i].Add(1) })
			for i := range ran {
				if c := ran[i].Load(); c != 1 {
					t.Errorf("GOMAXPROCS=%d n=%d: index %d ran %d times", procs, n, i, c)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestConcurrentGeneratorsMatchSerial: generators running at once
// borrow table writers from one free list, and each must still print
// what it prints alone. Under the race detector this also checks that a
// writer is never shared: a table hands its writer back only at its
// Flush.
func TestConcurrentGeneratorsMatchSerial(t *testing.T) {
	gens := []func(io.Writer){
		func(w io.Writer) { Table1(w) },
		func(w io.Writer) { Figure7(w, 100e6) },
		func(w io.Writer) { Table2(w) },
		func(w io.Writer) { MappingAblation(w) },
	}
	serial := make([][]byte, len(gens))
	for i, gen := range gens {
		var b bytes.Buffer
		gen(&b)
		serial[i] = b.Bytes()
	}
	for trial := 0; trial < 4; trial++ {
		got := make([]bytes.Buffer, len(gens))
		var wg sync.WaitGroup
		for i, gen := range gens {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gen(&got[i])
			}()
		}
		wg.Wait()
		for i := range gens {
			if !bytes.Equal(got[i].Bytes(), serial[i]) {
				t.Fatalf("trial %d: generator %d printed %q concurrently, %q alone", trial, i, got[i].Bytes(), serial[i])
			}
		}
	}
}
