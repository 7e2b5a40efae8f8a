package sw26010

import (
	"strings"
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

// launchWithin runs launch on its own goroutine and returns what it
// panicked with, failing the test if it has not returned in 10 s (a
// launch lock a panic left held would hang it).
func launchWithin(t *testing.T, launch func()) (panicked any) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { panicked = recover() }()
		launch()
	}()
	select {
	case <-done:
		return panicked
	case <-time.After(10 * time.Second):
		t.Fatal("launch still blocked after 10 s")
		return nil
	}
}

// TestKernelPanicLeavesGroupUsable: a kernel panic is re-raised on the
// caller naming its CPE, after peers have posted messages nobody
// received and while CPEs hold LDM. The CoreGroup stays usable: its
// FIFOs are emptied, the launch lock is released, and the next launch
// reports a fresh CoreGroup's time and payloads.
func TestKernelPanicLeavesGroupUsable(t *testing.T) {
	cg := NewCoreGroup(nil)
	r := launchWithin(t, func() {
		cg.Run(func(pe *CPE) {
			pe.Alloc(16)
			if pe.ID == 13 {
				panic("boom")
			}
			pe.RowSend((pe.Col+1)%MeshDim, []float32{-1}) // never received
		})
	})
	if msg, _ := r.(string); !strings.Contains(msg, "kernel panic on CPE(1,5): boom") {
		t.Fatalf("panic %v does not identify CPE(1,5)", r)
	}

	kernel := func(m *Mesh) {
		m.Each(func(pe *CPE) {
			pe.ChargeFlops(float64(pe.ID) * 100)
			if pe.Col == 0 {
				pe.RowBroadcast([]float32{float32(pe.Row)})
			}
		})
		m.Barrier()
		m.Each(func(pe *CPE) {
			if pe.Col != 0 && pe.RowRecv(0)[0] != float32(pe.Row) {
				t.Errorf("CPE(%d,%d) received a stale message", pe.Row, pe.Col)
			}
		})
	}
	want := NewCoreGroup(nil).RunSteps(CPEsPerCG, kernel)
	var got float64
	if r := launchWithin(t, func() { got = cg.RunSteps(CPEsPerCG, kernel) }); r != nil || got != want {
		t.Fatalf("after a kernel panic: launch took %g and panicked with %v, want %g from a fresh CoreGroup", got, r, want)
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
		pe.ChargeFlops(float64(1000 * pe.ID))
		_ = buf
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

// TestLDMBufferRecycling: Alloc hands back a released buffer rather
// than a new one, within a launch and across launches.
func TestLDMBufferRecycling(t *testing.T) {
	cg := NewCoreGroup(nil)
	var first *float32
	cg.RunN(1, func(pe *CPE) {
		a := pe.Alloc(64)
		first = &a[0]
		pe.Release(64)
		b := pe.Alloc(64)
		defer pe.Release(64)
		if &b[0] != first {
			t.Error("Alloc after Release did not recycle the released buffer")
		}
	})
	cg.RunN(1, func(pe *CPE) {
		b := pe.Alloc(32)
		defer pe.Release(32)
		if &b[0] != first {
			t.Error("a later launch did not recycle the released buffer")
		}
	})
}

// TestConcurrentLaunchesSerialize runs kernels on one CoreGroup from
// many goroutines; launches must serialize and every result must
// match the single-threaded value.
func TestConcurrentLaunchesSerialize(t *testing.T) {
	cg := NewCoreGroup(nil)
	kernel := func(m *Mesh) {
		m.Each(func(pe *CPE) { pe.ChargeFlops(float64(pe.ID) * 100) })
		m.Barrier()
		m.Each(func(pe *CPE) { pe.ChargeFlops(8) })
	}
	want := cg.RunSteps(CPEsPerCG, kernel)
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < 10; i++ {
				if got := cg.RunSteps(CPEsPerCG, kernel); got != want {
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

// TestBarrierDeterministicAcrossSchedules: a kernel that loops over
// barriers with unequal work in between reports one simulated time
// whether it runs on a fresh CoreGroup, again on a reused one, or on
// groups launched from several goroutines at once.
func TestBarrierDeterministicAcrossSchedules(t *testing.T) {
	kernel := func(m *Mesh) {
		for step := 0; step < 16; step++ {
			m.Each(func(pe *CPE) { pe.ChargeFlops(float64((pe.ID*31+step*17)%97) * 50) })
			m.Barrier()
		}
	}
	reused := NewCoreGroup(nil)
	want := reused.RunSteps(CPEsPerCG, kernel)
	for i := 0; i < 20; i++ {
		if got := reused.RunSteps(CPEsPerCG, kernel); got != want {
			t.Fatalf("reused group, run %d: simulated time %g != %g", i, got, want)
		}
		if got := NewCoreGroup(nil).RunSteps(CPEsPerCG, kernel); got != want {
			t.Fatalf("fresh group, run %d: simulated time %g != %g", i, got, want)
		}
	}
	const goroutines = 4
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			cg := NewCoreGroup(nil)
			for i := 0; i < 5; i++ {
				if got := cg.RunSteps(CPEsPerCG, kernel); got != want {
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

// TestMeshBuiltToDemand: a launch builds the CPEs it runs on and no
// more — one, with no FIFO storage, for the one-CPE pass launches the
// trainers make; a FIFO holds a backing array only once something is
// sent on it — later, larger launches extend the mesh and keep what is
// there, and a bus send to a position no launch has built panics
// naming both CPEs.
func TestMeshBuiltToDemand(t *testing.T) {
	cg := NewCoreGroup(nil)
	cg.RunN(1, func(pe *CPE) { pe.ChargeFlops(8) })
	first := cg.pes[0]
	if cg.built != 1 || first.rowIn[1].q != nil {
		t.Fatalf("after RunN(1): %d CPEs built, bus FIFO storage %v, want 1 and none (a mesh of one has no peers)",
			cg.built, first.rowIn[1].q != nil)
	}

	msg := mustPanic(t, func() {
		cg.RunN(1, func(pe *CPE) { pe.RowSend(3, []float32{1}) })
	})
	if !strings.Contains(msg, "CPE(0,0) sends to CPE(0,3)") {
		t.Fatalf("a send to an unbuilt CPE panicked with %q, want both CPEs named", msg)
	}

	var got float32
	cg.RunSteps(4, func(m *Mesh) {
		// CPE 0, built by the first launch, reaches CPE 3, built by this
		// one, and is wired now that it has peers.
		m.Each(func(pe *CPE) {
			if pe.ID == 0 {
				pe.RowSend(3, []float32{7})
			}
		})
		m.Each(func(pe *CPE) {
			if pe.ID == 3 {
				pe.RowSend(0, pe.RowRecv(0))
			}
		})
		m.Each(func(pe *CPE) {
			if pe.ID == 0 {
				got += pe.RowRecv(3)[0]
			}
		})
	})
	if cg.built != 4 || cg.pes[0] != first || got != 7 {
		t.Fatalf("after RunSteps(4): %d CPEs built, CPE 0 rebuilt %v, CPE 0 received %g, want 4, false, 7", cg.built, cg.pes[0] != first, got)
	}
	cg.RunN(2, func(pe *CPE) {})
	if cg.built != 4 {
		t.Fatalf("a smaller launch changed the mesh: %d CPEs built, want 4", cg.built)
	}

	var count int64
	cg.Run(func(pe *CPE) { count++ })
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

// TestRecvBeforeSendPanicsNamingBus: a receive whose message no CPE
// has posted earlier on the host — none at all, or one a higher-numbered
// CPE posts later in the same superstep — panics naming the bus and its
// source, and the CoreGroup stays usable.
func TestRecvBeforeSendPanicsNamingBus(t *testing.T) {
	cg := NewCoreGroup(nil)
	for _, c := range []struct {
		kernel func(pe *CPE)
		want   string
	}{
		{func(pe *CPE) {
			switch pe.ID {
			case 0:
				pe.RowRecv(1)
			case 1:
				pe.RowSend(0, []float32{1}) // too late: CPE 0 ran first
			}
		}, "kernel panic on CPE(0,0): sw26010: CPE(0,0) receives on the row bus from CPE(0,1), which has sent it nothing"},
		{func(pe *CPE) {
			if pe.ID == 2 {
				pe.ColRecv(1)
			}
		}, "kernel panic on CPE(0,2): sw26010: CPE(0,2) receives on the column bus from CPE(1,2), which has sent it nothing"},
	} {
		if r := launchWithin(t, func() { cg.RunN(4, c.kernel) }); r == nil || !strings.Contains(r.(string), c.want) {
			t.Errorf("panic %v, want it to contain %q", r, c.want)
		}
	}

	var got float32
	if r := launchWithin(t, func() {
		cg.RunN(2, func(pe *CPE) {
			if pe.ID == 0 {
				pe.RowSend(1, []float32{3})
			} else {
				got = pe.RowRecv(0)[0]
			}
		})
	}); r != nil || got != 3 {
		t.Fatalf("launch after a receive-before-send panic: received %g, panicked with %v, want 3 and no panic", got, r)
	}
}

// TestWarmLaunchAllocatesNothing: a warm 64-CPE launch with row and
// column broadcasts, receives and two barriers allocates nothing on the
// host — no FIFO growth, and neither the program closure nor the steps
// it builds escape.
func TestWarmLaunchAllocatesNothing(t *testing.T) {
	cg := NewCoreGroup(nil)
	launch := func() {
		cg.RunSteps(CPEsPerCG, func(m *Mesh) {
			var bufs [CPEsPerCG][]float32
			m.Each(func(pe *CPE) {
				bufs[pe.ID] = pe.Alloc(8)
				if pe.Col == 0 {
					pe.RowBroadcast(bufs[pe.ID])
				}
			})
			m.Each(func(pe *CPE) {
				if pe.Col != 0 {
					pe.RowRecv(0)
				}
			})
			m.Barrier()
			m.Each(func(pe *CPE) {
				if pe.Row == 0 {
					pe.ColBroadcast(bufs[pe.ID])
				}
			})
			m.Each(func(pe *CPE) {
				if pe.Row != 0 {
					pe.ColRecv(0)
				}
				pe.Release(8)
			})
			m.Barrier()
		})
		n := 3
		cg.Run(func(pe *CPE) { pe.ChargeFlops(float64(n)) })
	}
	launch()
	if n := testing.AllocsPerRun(20, launch); n != 0 {
		t.Fatalf("warm launch allocates %g objects, want 0", n)
	}
}
