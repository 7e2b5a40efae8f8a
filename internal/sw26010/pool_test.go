package sw26010

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// mustPanic runs f and returns the recovered panic message, failing
// the test if f completes normally.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		msg = r.(string)
	}()
	f()
	return ""
}

// TestKernelPanicUnblocksPeers launches kernels where one CPE panics
// while every peer is blocked on a bus receive or a barrier — the
// situation that leaked goroutines in the pre-pool engine. The pool
// must unwind all workers and stay usable.
func TestKernelPanicUnblocksPeers(t *testing.T) {
	cg := NewCoreGroup(nil)
	cg.Run(func(pe *CPE) {}) // warm the pool
	runtime.GC()
	base := runtime.NumGoroutine()

	blockers := []func(pe *CPE){
		func(pe *CPE) { pe.RowRecv((pe.Col + 1) % MeshDim) }, // never sent
		func(pe *CPE) { pe.Barrier() },                       // never completed
	}
	for round, block := range blockers {
		msg := mustPanic(t, func() {
			cg.Run(func(pe *CPE) {
				if pe.ID == 13 {
					panic("boom")
				}
				block(pe)
			})
		})
		if !strings.Contains(msg, "CPE(1,5): boom") {
			t.Fatalf("round %d: panic message %q does not identify CPE(1,5)", round, msg)
		}
	}

	// All workers must be back in the pool (no goroutines leaked
	// beyond the persistent 64 counted in base).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines leaked after kernel panics: %d > %d", n, base)
	}

	// The CoreGroup must remain fully usable after an aborted launch.
	var count int64
	elapsed := cg.Run(func(pe *CPE) {
		atomic.AddInt64(&count, 1)
		pe.ChargeFlops(8)
		pe.Barrier()
	})
	if count != CPEsPerCG || elapsed <= 0 {
		t.Fatalf("pool unusable after panic: count=%d elapsed=%g", count, elapsed)
	}
}

// TestLeftoverMessagesDoNotLeakAcrossLaunches has a kernel enqueue a
// bus message nobody consumes; the engine must drain it so the next
// launch's receive gets the fresh payload, not the stale one.
func TestLeftoverMessagesDoNotLeakAcrossLaunches(t *testing.T) {
	cg := NewCoreGroup(nil)
	cg.RunN(2, func(pe *CPE) {
		if pe.ID == 0 {
			pe.RowSend(1, []float32{111}) // never received
		}
	})
	var got float32
	cg.RunN(2, func(pe *CPE) {
		if pe.ID == 0 {
			pe.RowSend(1, []float32{222})
		} else {
			got = pe.RowRecv(0)[0]
		}
	})
	if got != 222 {
		t.Fatalf("second launch received stale message: got %g, want 222", got)
	}
}

// TestLaunchStateResets checks that per-launch CPE state (clock,
// stats, LDM accounting) is reset in place: N identical launches each
// report the same time and N-fold accumulated stats.
func TestLaunchStateResets(t *testing.T) {
	cg := NewCoreGroup(nil)
	kernel := func(pe *CPE) {
		buf := pe.Alloc(256)
		defer pe.Release(256)
		pe.ChargeFlops(1000)
		_ = buf
		pe.Barrier()
	}
	t1 := cg.Run(kernel)
	s1 := cg.Stats()
	for i := 0; i < 4; i++ {
		if ti := cg.Run(kernel); ti != t1 {
			t.Fatalf("launch %d time %g != first launch %g", i+2, ti, t1)
		}
	}
	s5 := cg.Stats()
	if s5.Flops != 5*s1.Flops || s5.ComputeTime != 5*s1.ComputeTime {
		t.Fatalf("stats did not accumulate linearly: %+v vs 5x %+v", s5, s1)
	}
	if s5.LDMHighTide != s1.LDMHighTide {
		t.Fatalf("LDM high tide changed across identical launches: %d vs %d", s5.LDMHighTide, s1.LDMHighTide)
	}
}

// TestLDMBufferRecycling verifies Alloc hands back zeroed buffers even
// when recycling a previously released (dirtied) one.
func TestLDMBufferRecycling(t *testing.T) {
	cg := NewCoreGroup(nil)
	cg.RunN(1, func(pe *CPE) {
		a := pe.Alloc(64)
		for i := range a {
			a[i] = 7
		}
		pe.Release(64)
		b := pe.Alloc(64)
		defer pe.Release(64)
		for i, v := range b {
			if v != 0 {
				t.Errorf("recycled Alloc not zeroed at %d: %g", i, v)
				break
			}
		}
	})
	// Across launches too.
	cg.RunN(1, func(pe *CPE) {
		b := pe.Alloc(64)
		defer pe.Release(64)
		for i, v := range b {
			if v != 0 {
				t.Errorf("cross-launch Alloc not zeroed at %d: %g", i, v)
				break
			}
		}
	})
}

// TestConcurrentLaunchesSerialize runs kernels on one CoreGroup from
// many goroutines; launches must serialize and every result must
// match the single-threaded value.
func TestConcurrentLaunchesSerialize(t *testing.T) {
	cg := NewCoreGroup(nil)
	want := cg.Run(func(pe *CPE) {
		pe.ChargeFlops(float64(pe.ID) * 100)
		pe.Barrier()
	})
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < 10; i++ {
				got := cg.Run(func(pe *CPE) {
					pe.ChargeFlops(float64(pe.ID) * 100)
					pe.Barrier()
				})
				if got != want {
					errs <- &mismatchError{got, want}
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

type mismatchError struct{ got, want float64 }

func (e *mismatchError) Error() string {
	return "concurrent launch time mismatch"
}

// TestBarrierDeterministicAcrossSchedules pins the fix for the seed
// engine's wake race: a kernel that loops over barriers with
// free-running work in between must report one simulated time no
// matter how the host schedules the workers.
func TestBarrierDeterministicAcrossSchedules(t *testing.T) {
	run := func() float64 {
		cg := NewCoreGroup(nil)
		defer cg.Close()
		return cg.Run(func(pe *CPE) {
			for step := 0; step < 16; step++ {
				pe.ChargeFlops(float64((pe.ID*31+step*17)%97) * 50)
				pe.Barrier()
			}
		})
	}
	want := run()
	for i := 0; i < 20; i++ {
		if got := run(); got != want {
			t.Fatalf("simulated time depends on scheduling: %g != %g", got, want)
		}
	}
}

// TestCloseStopsWorkers verifies Close terminates the pool's
// goroutines and is idempotent.
func TestCloseStopsWorkers(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	cg := NewCoreGroup(nil)
	cg.Run(func(pe *CPE) {})
	if n := runtime.NumGoroutine(); n < base+CPEsPerCG {
		t.Fatalf("expected %d pool workers, have %d extra goroutines", CPEsPerCG, n-base)
	}
	cg.Close()
	cg.Close() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("workers survived Close: %d > %d", n, base)
	}
	// Launching after Close must fail with the intended diagnostic,
	// not a raw send-on-closed-channel runtime panic.
	msg := mustPanic(t, func() { cg.Run(func(pe *CPE) {}) })
	if !strings.Contains(msg, "closed CoreGroup") {
		t.Fatalf("Run after Close panicked with %q", msg)
	}
}

// TestMeshBuiltToDemand: a launch builds the CPEs it runs on and no
// more — one, with no FIFO storage, for the one-CPE pass launches the
// trainers make, where it used to build all 64 with their 1024 FIFOs
// (2.5 MB); a FIFO holds a backing array only once something is sent
// on it — later, larger launches extend the mesh and keep what is
// there, and a bus send to a position no launch has built panics
// naming both CPEs.
func TestMeshBuiltToDemand(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	cg := NewCoreGroup(nil)
	defer cg.Close()
	cg.RunN(1, func(pe *CPE) { pe.ChargeFlops(8) })
	first := cg.pes[0]
	if n := runtime.NumGoroutine(); cg.built != 1 || n > base+1 || first.rowIn[1].q != nil {
		t.Fatalf("after RunN(1): %d CPEs built, %d coroutines, bus FIFO storage %v, want 1, 1 and none (a mesh of one has no peers)",
			cg.built, n-base, first.rowIn[1].q != nil)
	}

	msg := mustPanic(t, func() {
		cg.RunN(1, func(pe *CPE) { pe.RowSend(3, []float32{1}) })
	})
	if !strings.Contains(msg, "CPE(0,0) sends to CPE(0,3)") {
		t.Fatalf("a send to an unbuilt CPE panicked with %q, want both CPEs named", msg)
	}

	var got float32
	cg.RunN(4, func(pe *CPE) {
		switch pe.ID {
		case 0: // built by the first launch, reaches one built by this
			pe.RowSend(3, []float32{7})
			got += pe.RowRecv(3)[0] // and is wired now that it has peers
		case 3:
			pe.RowSend(0, pe.RowRecv(0))
		}
	})
	if cg.built != 4 || cg.pes[0] != first || got != 7 {
		t.Fatalf("after RunN(4): %d CPEs built, CPE 0 rebuilt %v, CPE 3 received %g, want 4, false, 7", cg.built, cg.pes[0] != first, got)
	}
	cg.RunN(2, func(pe *CPE) {})
	if cg.built != 4 {
		t.Fatalf("a smaller launch changed the mesh: %d CPEs built, want 4", cg.built)
	}

	var count int64
	cg.Run(func(pe *CPE) {
		atomic.AddInt64(&count, 1)
		pe.Barrier()
	})
	if cg.built != CPEsPerCG || count != CPEsPerCG {
		t.Fatalf("after Run: %d CPEs built, %d ran, want %d", cg.built, count, CPEsPerCG)
	}
}

// TestReleaseRecyclesNewestSameSize pins the documented recycling
// contract: Release frees the most recently allocated outstanding
// buffer of that size, even after an unrelated removal from the live
// list (ordered removal, not swap-with-last).
func TestReleaseRecyclesNewestSameSize(t *testing.T) {
	cg := NewCoreGroup(nil)
	defer cg.Close()
	cg.RunN(1, func(pe *CPE) {
		a := pe.Alloc(4)
		b := pe.Alloc(8)
		_ = pe.Alloc(8) // c: newest 8-slot buffer
		_ = a
		pe.Release(4) // frees a; live order must remain [b, c]
		b[0] = 42
		pe.Release(8) // must free c (newest 8-slot), not the in-use b
		d := pe.Alloc(8)
		if &d[0] == &b[0] {
			t.Error("Release handed out the in-use buffer for recycling")
		}
		if b[0] != 42 {
			t.Errorf("live buffer clobbered: b[0] = %g", b[0])
		}
		pe.Release(8)
		pe.Release(8)
	})
}

// TestDeadlockPanicsNamingWaits: a launch whose unfinished CPEs all
// wait panics instead of hanging, with one line per waiting CPE naming
// the bus and its source or the barrier, and the CoreGroup stays
// usable. The launch runs on its own goroutine under a deadline so an
// engine that hangs fails the test instead of the suite.
func TestDeadlockPanicsNamingWaits(t *testing.T) {
	cg := NewCoreGroup(nil)
	launch := func(n int, kernel func(pe *CPE)) (elapsed float64, panicked any) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() { panicked = recover() }()
			elapsed = cg.RunN(n, kernel)
		}()
		select {
		case <-done:
			return elapsed, panicked
		case <-time.After(10 * time.Second):
			t.Fatal("RunN still blocked 10 s after every CPE began to wait")
			return 0, nil
		}
	}
	_, r := launch(4, func(pe *CPE) {
		switch pe.ID {
		case 0:
			pe.RowRecv(1)
		case 1:
			pe.ColRecv(1)
		case 2:
			pe.Barrier()
		}
	})
	msg, _ := r.(string)
	for _, want := range []string{
		"launch deadlocked",
		"CPE(0,0) waits on the row bus from CPE(0,1)",
		"CPE(0,1) waits on the column bus from CPE(1,1)",
		"CPE(0,2) waits at the barrier",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock panic %q does not contain %q", msg, want)
		}
	}
	if strings.Contains(msg, "CPE(0,3)") {
		t.Errorf("deadlock panic %q names CPE(0,3), which finished", msg)
	}
	if lines := strings.Count(msg, "\n"); lines != 3 {
		t.Errorf("deadlock panic has %d CPE lines, want 3: %q", lines, msg)
	}

	kernel := func(pe *CPE) {
		pe.ChargeFlops(float64(pe.ID) * 100)
		pe.Barrier()
		if pe.Col == 0 {
			pe.RowBroadcast([]float32{1})
		} else {
			pe.RowRecv(0)
		}
	}
	fresh := NewCoreGroup(nil)
	defer fresh.Close()
	want := fresh.Run(kernel)
	if got, r := launch(CPEsPerCG, kernel); r != nil || got != want {
		t.Fatalf("after a deadlock: launch took %g and panicked with %v, want %g from a fresh CoreGroup", got, r, want)
	}
	cg.Close()
}

// TestWarmLaunchAllocatesNothing: a warm 64-CPE launch with row and
// column broadcasts, receives and two barriers allocates nothing on the
// host — no per-launch abort channel, no FIFO growth.
func TestWarmLaunchAllocatesNothing(t *testing.T) {
	cg := NewCoreGroup(nil)
	defer cg.Close()
	kernel := func(pe *CPE) {
		buf := pe.Alloc(8)
		defer pe.Release(8)
		if pe.Col == 0 {
			pe.RowBroadcast(buf)
		} else {
			pe.RowRecv(0)
		}
		pe.Barrier()
		if pe.Row == 0 {
			pe.ColBroadcast(buf)
		} else {
			pe.ColRecv(0)
		}
		pe.Barrier()
	}
	cg.Run(kernel)
	if n := testing.AllocsPerRun(20, func() { cg.Run(kernel) }); n != 0 {
		t.Fatalf("warm launch allocates %g objects, want 0", n)
	}
}
