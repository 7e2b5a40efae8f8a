package sw26010

import "testing"

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
	cg.RunSteps(CPEsPerCG, func(m *Mesh) {
		// Column 0 broadcasts its row id along the row.
		m.Each(func(pe *CPE) {
			if pe.Col == 0 {
				pe.RowBroadcast([]float32{float32(pe.Row)})
			}
		})
		m.Each(func(pe *CPE) {
			if pe.Col != 0 {
				rowSum += int64(pe.RowRecv(0)[0])
			}
		})
		m.Barrier()
		// Row 0 broadcasts its column id along the column.
		m.Each(func(pe *CPE) {
			if pe.Row == 0 {
				pe.ColBroadcast([]float32{float32(pe.Col)})
			}
		})
		m.Each(func(pe *CPE) {
			if pe.Row != 0 {
				colSum += int64(pe.ColRecv(0)[0])
			}
		})
		m.Barrier()
		// P2P ring within each row: send to the right neighbour.
		m.Each(func(pe *CPE) { pe.RowSend((pe.Col+1)%MeshDim, []float32{float32(pe.ID)}) })
		m.Each(func(pe *CPE) {
			prev := (pe.Col - 1 + MeshDim) % MeshDim
			if v := pe.RowRecv(prev); int(v[0]) != pe.Row*MeshDim+prev {
				t.Errorf("CPE(%d,%d) p2p received %v, want %d", pe.Row, pe.Col, v[0], pe.Row*MeshDim+prev)
			}
			p2p++
		})
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

// TestBarrierAlignsClocks: Mesh.Barrier sets every CPE's clock to the
// slowest CPE's, and a loop of barriers with unequal work in between
// ends at the sum of each round's slowest work.
func TestBarrierAlignsClocks(t *testing.T) {
	cg := NewCoreGroup(nil)
	clocks := make([]float64, CPEsPerCG)
	cg.RunSteps(CPEsPerCG, func(m *Mesh) {
		// Unequal work before the barrier.
		m.Each(func(pe *CPE) { pe.ChargeFlops(float64(pe.ID+1) * 1000) })
		m.Barrier()
		m.Each(func(pe *CPE) { clocks[pe.ID] = pe.Clock() })
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

	work := func(id, step int) float64 { return float64((id*31+step*17)%97) * 50 }
	var wantLoop float64
	for step := 0; step < 16; step++ {
		var slowest float64
		for id := range CPEsPerCG {
			slowest = max(slowest, work(id, step)/CPEPeakFlops)
		}
		wantLoop += slowest
	}
	got := cg.RunSteps(CPEsPerCG, func(m *Mesh) {
		for step := 0; step < 16; step++ {
			m.Each(func(pe *CPE) { pe.ChargeFlops(work(pe.ID, step)) })
			m.Barrier()
		}
	})
	if diff := got - wantLoop; diff < -1e-12 || diff > 1e-12 {
		t.Fatalf("16 barrier rounds took %g, want the summed maxima %g", got, wantLoop)
	}
}

func TestMessageTimestampPropagation(t *testing.T) {
	cg := NewCoreGroup(nil)
	var receiverClock float64
	cg.RunSteps(2, func(m *Mesh) {
		m.Each(func(pe *CPE) {
			if pe.ID == 0 {
				pe.ChargeFlops(1e6) // sender is busy first
				pe.RowSend(1, []float32{1})
			}
		})
		m.Each(func(pe *CPE) {
			if pe.ID == 1 {
				pe.RowRecv(0)
				receiverClock = pe.Clock()
			}
		})
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
		count++
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
