package sw26010

import (
	"sync/atomic"
	"testing"
)

func TestDMAGetPutFunctional(t *testing.T) {
	cg := NewCoreGroup(nil)
	const per = 64
	src := make([]float32, CPEsPerCG*per)
	dst := make([]float32, CPEsPerCG*per)
	for i := range src {
		src[i] = float32(i)
	}
	elapsed := cg.Run(func(pe *CPE) {
		buf := pe.Alloc(per)
		defer pe.Release(per)
		pe.DMAGet(buf, src[pe.ID*per:(pe.ID+1)*per])
		for i := range buf {
			buf[i] *= 2
		}
		pe.ChargeFlops(per)
		pe.DMAPut(dst[pe.ID*per:(pe.ID+1)*per], buf)
	})
	for i := range dst {
		if dst[i] != 2*src[i] {
			t.Fatalf("dst[%d] = %g, want %g", i, dst[i], 2*src[i])
		}
	}
	if elapsed <= 0 {
		t.Fatal("kernel must take simulated time")
	}
	st := cg.Stats()
	wantBytes := int64(CPEsPerCG * per * 4)
	if st.DMAGetBytes != wantBytes || st.DMAPutBytes != wantBytes {
		t.Fatalf("stats bytes = %d/%d, want %d", st.DMAGetBytes, st.DMAPutBytes, wantBytes)
	}
	if st.Flops != float64(CPEsPerCG*per) {
		t.Fatalf("stats flops = %g", st.Flops)
	}
}

func TestDMAStrided(t *testing.T) {
	cg := NewCoreGroup(nil)
	const rows, blockLen, stride = 4, 8, 20
	src := make([]float32, rows*stride)
	for i := range src {
		src[i] = float32(i)
	}
	got := make([]float32, rows*blockLen)
	cg.RunN(1, func(pe *CPE) {
		buf := pe.Alloc(rows * blockLen)
		defer pe.Release(rows * blockLen)
		pe.DMAGetStrided(buf, src, rows, blockLen, stride)
		copy(got, buf)
		// Scatter it back with a different stride and verify.
		pe.DMAPutStrided(src, buf, rows, blockLen, stride)
	})
	for r := 0; r < rows; r++ {
		for i := 0; i < blockLen; i++ {
			if got[r*blockLen+i] != float32(r*stride+i) {
				t.Fatalf("strided gather wrong at row %d elem %d", r, i)
			}
		}
	}
}

func TestRowColBroadcastAndP2P(t *testing.T) {
	cg := NewCoreGroup(nil)
	var rowSum, colSum, p2p int64
	cg.Run(func(pe *CPE) {
		// Column 0 broadcasts its row id along the row.
		if pe.Col == 0 {
			pe.RowBroadcast([]float32{float32(pe.Row)})
		} else {
			v := pe.RowRecv(0)
			atomic.AddInt64(&rowSum, int64(v[0]))
		}
		pe.Barrier()
		// Row 0 broadcasts its column id along the column.
		if pe.Row == 0 {
			pe.ColBroadcast([]float32{float32(pe.Col)})
		} else {
			v := pe.ColRecv(0)
			atomic.AddInt64(&colSum, int64(v[0]))
		}
		pe.Barrier()
		// P2P ring within each row: send to the right neighbour.
		next := (pe.Col + 1) % MeshDim
		prev := (pe.Col - 1 + MeshDim) % MeshDim
		pe.RowSend(next, []float32{float32(pe.ID)})
		v := pe.RowRecv(prev)
		if int(v[0]) != pe.Row*MeshDim+prev {
			t.Errorf("CPE(%d,%d) p2p received %v, want %d", pe.Row, pe.Col, v[0], pe.Row*MeshDim+prev)
		}
		atomic.AddInt64(&p2p, 1)
	})
	// Each of 8 rows: 7 receivers of row id r -> sum = 7 * (0+..+7).
	if rowSum != 7*28 {
		t.Fatalf("row broadcast sum = %d, want %d", rowSum, 7*28)
	}
	if colSum != 7*28 {
		t.Fatalf("col broadcast sum = %d, want %d", colSum, 7*28)
	}
	if p2p != CPEsPerCG {
		t.Fatalf("p2p count = %d", p2p)
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	cg := NewCoreGroup(nil)
	clocks := make([]float64, CPEsPerCG)
	cg.Run(func(pe *CPE) {
		// Unequal work before the barrier.
		pe.ChargeFlops(float64(pe.ID+1) * 1000)
		pe.Barrier()
		clocks[pe.ID] = pe.Clock()
	})
	for i := 1; i < CPEsPerCG; i++ {
		if clocks[i] != clocks[0] {
			t.Fatalf("clock %d = %g differs from %g after barrier", i, clocks[i], clocks[0])
		}
	}
	// The aligned clock equals the slowest CPE's pre-barrier time.
	want := float64(CPEsPerCG) * 1000 / CPEPeakFlops
	if diff := clocks[0] - want; diff < -1e-12 || diff > 1e-12 {
		t.Fatalf("barrier clock %g, want %g", clocks[0], want)
	}
}

func TestMessageTimestampPropagation(t *testing.T) {
	cg := NewCoreGroup(nil)
	var receiverClock float64
	cg.RunN(2, func(pe *CPE) {
		if pe.ID == 0 {
			pe.ChargeFlops(1e6) // sender is busy first
			pe.RowSend(1, []float32{1})
		} else {
			pe.RowRecv(0)
			receiverClock = pe.Clock()
		}
	})
	// The receiver cannot finish before the sender's send time.
	senderBusy := 1e6 / CPEPeakFlops
	if receiverClock <= senderBusy {
		t.Fatalf("receiver clock %g did not wait for sender (%g)", receiverClock, senderBusy)
	}
}

func TestLDMOverflowPanics(t *testing.T) {
	cg := NewCoreGroup(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected LDM overflow panic")
		}
	}()
	cg.RunN(1, func(pe *CPE) {
		pe.Alloc(LDMBytes) // 256 KB of floats > 64 KB budget
	})
}

func TestLDMLeakPanics(t *testing.T) {
	cg := NewCoreGroup(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected LDM leak panic")
		}
	}()
	cg.RunN(1, func(pe *CPE) {
		pe.Alloc(16) // never released
	})
}

func TestLDMAccounting(t *testing.T) {
	cg := NewCoreGroup(nil)
	cg.RunN(1, func(pe *CPE) {
		a := pe.Alloc(100)
		if pe.ldmUsed != 400 {
			t.Errorf("live LDM bytes = %d, want 400", pe.ldmUsed)
		}
		b := pe.Alloc(50)
		pe.Release(100)
		pe.Release(50)
		_ = a
		_ = b
		if pe.ldmUsed != 0 {
			t.Errorf("live LDM bytes = %d after release", pe.ldmUsed)
		}
	})
	if ht := cg.Stats().LDMHighTide; ht != 600 {
		t.Fatalf("high tide = %d, want 600", ht)
	}
}

func TestRunNPartialMesh(t *testing.T) {
	cg := NewCoreGroup(nil)
	var count int64
	elapsed := cg.RunN(16, func(pe *CPE) {
		atomic.AddInt64(&count, 1)
		if pe.Active != 16 {
			t.Errorf("Active = %d, want 16", pe.Active)
		}
		pe.ChargeFlops(8)
	})
	if count != 16 {
		t.Fatalf("ran %d CPEs, want 16", count)
	}
	if elapsed <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestStatsReset(t *testing.T) {
	cg := NewCoreGroup(nil)
	cg.RunN(1, func(pe *CPE) { pe.ChargeFlops(10) })
	if cg.Stats().Flops != 10 {
		t.Fatal("stats not accumulated")
	}
	cg.ResetStats()
	if cg.Stats().Flops != 0 {
		t.Fatal("stats not reset")
	}
}

func TestDMAContentionChargedByActiveCount(t *testing.T) {
	// The same per-CPE transfer must take longer when 64 CPEs contend
	// than when one runs alone.
	src := make([]float32, 64<<10)
	run := func(n int) float64 {
		cg := NewCoreGroup(nil)
		return cg.RunN(n, func(pe *CPE) {
			buf := pe.Alloc(1024)
			defer pe.Release(1024)
			pe.DMAGet(buf, src[:1024])
		})
	}
	if t1, t64 := run(1), run(64); t64 <= t1 {
		t.Fatalf("64-way contention (%g) should exceed solo time (%g)", t64, t1)
	}
}
