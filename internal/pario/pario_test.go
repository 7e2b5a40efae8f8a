package pario

import (
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	good := DefaultTaihuLight(32)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Config{
		{Arrays: 0, ArrayBandwidth: 1e9, StripeCount: 1, StripeSize: 1},
		{Arrays: 4, ArrayBandwidth: 1e9, StripeCount: 8, StripeSize: 1}, // stripes > arrays
		{Arrays: 4, ArrayBandwidth: 1e9, StripeCount: 2, StripeSize: 0},
		{Arrays: 4, ArrayBandwidth: -1, StripeCount: 2, StripeSize: 1},
	}
	for i, c := range bads {
		if c.Validate() == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestArraysPerRead(t *testing.T) {
	cfg := DefaultTaihuLight(32)
	// Paper Sec. V-B: a 192 MB read with 256 MB stripes touches at
	// most two arrays.
	if n := cfg.ArraysPerRead(ImageNetBatchBytes(256)); n != 2 {
		t.Fatalf("192 MB read touches %d arrays, want 2", n)
	}
	single := DefaultTaihuLight(1)
	if n := single.ArraysPerRead(ImageNetBatchBytes(256)); n != 1 {
		t.Fatalf("single-split read touches %d arrays", n)
	}
	// A giant read cannot touch more arrays than there are stripes.
	if n := cfg.ArraysPerRead(100 << 30); n > 32 {
		t.Fatalf("read touches %d arrays, max 32", n)
	}
}

func TestReadersPerArrayBound(t *testing.T) {
	cfg := DefaultTaihuLight(32)
	batch := ImageNetBatchBytes(256)
	// Paper: "the number of processes required per disk array is also
	// reduced to at most N/32 x 2".
	for _, n := range []int{64, 256, 1024} {
		got := cfg.ReadersPerArray(n, batch)
		bound := float64(n) / 32 * 2
		if got > bound+1e-9 {
			t.Fatalf("N=%d: %g readers per array exceeds the paper's bound %g", n, got, bound)
		}
	}
	// Single-split: every process hammers the one array.
	single := DefaultTaihuLight(1)
	if got := single.ReadersPerArray(512, batch); got != 512 {
		t.Fatalf("single-split readers = %g, want 512", got)
	}
}

func TestStripingImprovesReadTime(t *testing.T) {
	batch := ImageNetBatchBytes(256)
	single := DefaultTaihuLight(1)
	striped := DefaultTaihuLight(32)
	for _, n := range []int{32, 256, 1024} {
		ts := single.ReadTime(n, batch)
		tt := striped.ReadTime(n, batch)
		if tt >= ts {
			t.Fatalf("N=%d: striping did not help (%g vs %g)", n, tt, ts)
		}
		// At scale the improvement approaches the stripe count / spans.
		if n >= 256 {
			if ratio := ts / tt; ratio < 8 {
				t.Fatalf("N=%d: striping speedup only %.1fx", n, ratio)
			}
		}
	}
}

func TestAggregateBandwidthSaturates(t *testing.T) {
	single := DefaultTaihuLight(1)
	batch := ImageNetBatchBytes(256)
	// Paper: "the aggregate read bandwidth ... can quickly reach the
	// upper limit of a single disk array".
	agg := single.AggregateBandwidth(1024, batch)
	if agg > single.ArrayBandwidth*1.01 {
		t.Fatalf("single-split aggregate %g exceeds one array's %g", agg, single.ArrayBandwidth)
	}
	striped := DefaultTaihuLight(32)
	aggS := striped.AggregateBandwidth(1024, batch)
	if aggS < 10*agg {
		t.Fatalf("striped aggregate %g should dwarf single-split %g", aggS, agg)
	}
	// And cannot exceed the whole pool.
	if aggS > striped.ArrayBandwidth*float64(striped.Arrays)*1.01 {
		t.Fatalf("aggregate %g exceeds pool capacity", aggS)
	}
}

func TestPrefetcherOverlap(t *testing.T) {
	rt := DefaultTaihuLight(32).ReadTime(256, ImageNetBatchBytes(256))
	// Fully hidden when compute exceeds the read, and when it exactly
	// equals it.
	for _, window := range []float64{rt * 2, rt} {
		if got := ExposedTime(rt, window); got != 0 {
			t.Fatalf("window %g: exposed %g, want 0", window, got)
		}
	}
	// Partially exposed otherwise: exactly the remainder.
	if got := ExposedTime(rt, rt/2); got != rt-rt/2 {
		t.Fatalf("exposed %g, want %g", got, rt-rt/2)
	}
	// A cold read with nothing to hide behind is exposed in full.
	if got := ExposedTime(rt, 0); got != rt {
		t.Fatalf("exposed %g with no window, want the whole read %g", got, rt)
	}
}

func TestReadTimeProperties(t *testing.T) {
	f := func(stripeSel, procSel uint8) bool {
		stripes := []int{1, 2, 8, 32}[stripeSel%4]
		procs := []int{1, 16, 128, 1024}[procSel%4]
		cfg := DefaultTaihuLight(stripes)
		batch := ImageNetBatchBytes(256)
		rt := cfg.ReadTime(procs, batch)
		if rt <= 0 {
			return false
		}
		// More processes can never make an individual read faster.
		return cfg.ReadTime(procs*2, batch) >= rt-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReadersPerArrayPropertyBound is the satellite property test: the
// paper's "at most N/32 x 2" bound generalized — for every stripe
// count s > 1, proc count and read size, the per-array load must stay
// within max(1, procs·arraysPerRead/s), arraysPerRead must obey the
// worst-case span formula ceil(L/S)+1 capped at s, and a 256 MB-stripe
// layout must never span more than ceil(192MB/256MB)+1 = 2 arrays for
// the paper's batch.
func TestReadersPerArrayPropertyBound(t *testing.T) {
	f := func(stripeSel, procSel, sizeSel uint8) bool {
		stripes := []int{1, 2, 4, 8, 16, 32}[int(stripeSel)%6]
		procs := []int{1, 4, 32, 128, 1024, 4096}[int(procSel)%6]
		size := []int64{1 << 10, 1 << 20, ImageNetBatchBytes(256), 300 << 20, 1 << 30}[int(sizeSel)%5]
		cfg := DefaultTaihuLight(stripes)

		per := cfg.ArraysPerRead(size)
		if stripes == 1 {
			if per != 1 {
				return false
			}
		} else {
			worst := int((size-1)/cfg.StripeSize) + 2
			if worst > stripes {
				worst = stripes
			}
			if per != worst {
				return false
			}
		}

		got := cfg.ReadersPerArray(procs, size)
		bound := float64(procs) * float64(per) / float64(stripes)
		if bound < 1 {
			bound = 1
		}
		if stripes == 1 {
			bound = float64(procs)
		}
		return got <= bound+1e-9 && got >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// The exact paper figure, pinned: 32 stripes, the 192 MB batch.
	cfg := DefaultTaihuLight(32)
	batch := ImageNetBatchBytes(256)
	for _, n := range []int{32, 64, 256, 1024, 4096} {
		if got, want := cfg.ReadersPerArray(n, batch), float64(n)/32*2; got > want+1e-9 {
			t.Fatalf("N=%d: %g readers/array exceeds N/32·2 = %g", n, got, want)
		}
	}
}

// TestArraysPerReadAlignedAgreesWithUnaligned pins the satellite fix:
// an exact-multiple read and a one-byte-longer read may differ by at
// most one spanned stripe, and the aligned case uses the same
// worst-case formula as everything else (the old code special-cased it
// a stripe low).
func TestArraysPerReadAlignedAgreesWithUnaligned(t *testing.T) {
	cfg := DefaultTaihuLight(32)
	s := cfg.StripeSize
	for _, mult := range []int64{1, 2, 5} {
		aligned := cfg.ArraysPerRead(mult * s)
		over := cfg.ArraysPerRead(mult*s + 1)
		if want := int(mult) + 1; aligned != want {
			t.Fatalf("%d-stripe-aligned read: %d arrays, want worst-case %d", mult, aligned, want)
		}
		if over != aligned+1 {
			t.Fatalf("crossing the %d-stripe boundary: %d -> %d arrays, want +1", mult, aligned, over)
		}
	}
	if got := cfg.ArraysPerRead(0); got != 1 {
		t.Fatalf("zero-byte read touches %d arrays, want 1", got)
	}
}

func TestSelectStripe(t *testing.T) {
	base := DefaultTaihuLight(1)
	const procs = 128
	batch := int64(64 << 10)

	// A generous hide window hides the read at every layout: the
	// advisor must keep single-split (smaller-stripe tie-break).
	pick, cands := SelectStripe(base, procs, batch, 1.0)
	if pick.StripeCount != 1 || pick.Exposed != 0 {
		t.Fatalf("fully-hidden sweep picked %+v, want single-split at 0 exposed", pick)
	}
	if len(cands) != 6 { // 1,2,4,8,16,32
		t.Fatalf("candidate sweep has %d entries, want 6", len(cands))
	}

	// A tight window forces striping: the pick must beat single-split
	// and be the smallest stripe count achieving its exposure.
	hide := base.ReadTime(procs, batch) / 8
	pick, cands = SelectStripe(base, procs, batch, hide)
	if pick.StripeCount == 1 {
		t.Fatalf("tight-window sweep kept single-split: %+v", pick)
	}
	if pick.Exposed >= cands[0].Exposed {
		t.Fatalf("advisor pick %+v does not beat single-split %+v", pick, cands[0])
	}
	for _, c := range cands {
		if c.Exposed < pick.Exposed {
			t.Fatalf("candidate %+v beats the pick %+v", c, pick)
		}
		if c.Exposed == pick.Exposed && c.StripeCount < pick.StripeCount {
			t.Fatalf("tie-break violated: %+v not preferred over %+v", c, pick)
		}
	}
}

func TestImageNetBatchBytes(t *testing.T) {
	// The paper's figure: 256 images ~ 192 MB.
	got := float64(ImageNetBatchBytes(256)) / 1e6
	if got < 180 || got > 210 {
		t.Fatalf("256-image batch = %.0f MB, want ~192-200", got)
	}
}
