package swdnn_test

// Concurrency coverage for the plan cache and the staging buffer
// pools (run under -race): concurrent planner queries for one shape
// must all observe the identical plan, and concurrent functional runs
// must never share a pooled staging buffer.

import (
	"sync"
	"testing"

	"swcaffe/internal/sw26010"
	"swcaffe/internal/swdnn"
)

func TestPlanCacheConcurrentIdentical(t *testing.T) {
	swdnn.ResetPlanCache()
	hw := sw26010.Default()
	shape := swdnn.ConvShape{B: 128, Ni: 256, Ri: 56, Ci: 56, No: 256, K: 3, S: 1, P: 1}
	wantGEMM := swdnn.GEMMPlan(hw, 512, 384, 3136)
	wantNoRLC := swdnn.GEMMPlanNoRLC(hw, 512, 384, 3136)
	wantImp := swdnn.ConvImplicitPlan(hw, shape, swdnn.Forward)
	wantExp := swdnn.ConvExplicitPlan(hw, shape, swdnn.Forward)

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine queries through a private Model value with
			// identical parameters: value-keying must share entries.
			myHW := sw26010.Default()
			for i := 0; i < 50; i++ {
				if p := swdnn.GEMMPlan(myHW, 512, 384, 3136); p != wantGEMM {
					t.Errorf("GEMMPlan diverged under concurrency: %+v != %+v", p, wantGEMM)
					return
				}
				if p := swdnn.GEMMPlanNoRLC(myHW, 512, 384, 3136); p != wantNoRLC {
					t.Errorf("GEMMPlanNoRLC diverged under concurrency")
					return
				}
				imp, exp, best := swdnn.ConvPlans(myHW, shape, swdnn.Forward)
				if imp != wantImp || exp != wantExp {
					t.Errorf("ConvPlans diverged under concurrency")
					return
				}
				if best.Name != "implicit" && best.Name != "explicit" {
					t.Errorf("ConvPlans best is %q", best.Name)
					return
				}
			}
		}()
	}
	wg.Wait()

	hits, misses := swdnn.PlanCacheCounters()
	if misses == 0 {
		t.Fatal("plan cache recorded no misses — initial computation not counted")
	}
	if hits == 0 {
		t.Fatal("plan cache recorded no hits — memoization not effective")
	}
	if hits < misses {
		t.Fatalf("plan cache hit rate implausibly low: %d hits / %d misses", hits, misses)
	}
}

// TestPlanCacheMutationIsolation: a planner returns a value, so
// mutating it must leave the cached plan unchanged for later queries,
// and mutating the hardware model must miss the cache instead of
// returning a stale plan.
func TestPlanCacheMutationIsolation(t *testing.T) {
	swdnn.ResetPlanCache()
	hw := sw26010.Default()
	p1 := swdnn.GEMMPlan(hw, 256, 256, 256)
	want := p1
	p1.Time = -1
	p1.Name = "clobbered"
	p1.Block[0] = -1
	if p2 := swdnn.GEMMPlan(hw, 256, 256, 256); p2 != want {
		t.Fatalf("cached plan was poisoned by caller mutation: %+v", p2)
	}

	slow := sw26010.Default()
	slow.DMAPeak /= 4
	pSlow := swdnn.GEMMPlan(slow, 256, 256, 256)
	if pSlow.Time <= want.Time {
		t.Fatalf("mutated model returned stale cached plan: %g <= %g", pSlow.Time, want.Time)
	}
}

// TestWarmPlannersAllocateNothing: plans are values, so a cache hit —
// and the uncached streaming planners — put nothing on the heap.
func TestWarmPlannersAllocateNothing(t *testing.T) {
	hw := sw26010.Default()
	shape := swdnn.ConvShape{B: 128, Ni: 256, Ri: 56, Ci: 56, No: 256, K: 3, S: 1, P: 1}
	var sink float64
	planners := map[string]func(){
		"ConvPlans": func() {
			_, _, best := swdnn.ConvPlans(hw, shape, swdnn.Forward)
			sink += best.Time
		},
		"GEMMPlan":        func() { sink += swdnn.GEMMPlan(hw, 512, 384, 3136).Time },
		"ElementwisePlan": func() { sink += swdnn.ElementwisePlan(hw, 1<<20, 1, 1, 1).Time },
		"BatchNormPlan":   func() { sink += swdnn.BatchNormPlan(hw, 1<<20).Time },
	}
	for name, query := range planners {
		query() // warm the cache
		if n := testing.AllocsPerRun(100, query); n != 0 {
			t.Errorf("warm %s: %v allocs/op, want 0", name, n)
		}
	}
	if sink <= 0 {
		t.Fatal("planners returned no time")
	}
}

// TestStagingPoolConcurrentGEMM hammers the ragged (pad/unpad staging)
// GEMM path from many goroutines. A double-handed-out pooled buffer
// would corrupt results; every worker must match the reference bit
// for bit (identical launches are deterministic).
func TestStagingPoolConcurrentGEMM(t *testing.T) {
	const m, k, n = 60, 52, 44 // forces the staging path (not multiples of 8)
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = float32(i%23) * 0.25
	}
	for i := range b {
		b[i] = float32(i%19)*0.5 - 4
	}
	// One sequential run is the golden result.
	golden := make([]float32, m*n)
	{
		cg := sw26010.NewCoreGroup(nil)
		defer cg.Close()
		swdnn.GEMMRun(cg, a, b, golden, m, k, n)
	}

	const goroutines = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cg := sw26010.NewCoreGroup(nil)
			defer cg.Close()
			c := make([]float32, m*n)
			for iter := 0; iter < 8; iter++ {
				clear(c)
				swdnn.GEMMRun(cg, a, b, c, m, k, n)
				for i := range c {
					if c[i] != golden[i] {
						t.Errorf("concurrent ragged GEMM corrupted output at %d: %g != %g", i, c[i], golden[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestStagingPoolConcurrentConv exercises the pooled im2col column
// buffer through concurrent explicit convolutions.
func TestStagingPoolConcurrentConv(t *testing.T) {
	s := swdnn.ConvShape{B: 1, Ni: 3, Ri: 11, Ci: 11, No: 5, K: 3, S: 2, P: 1}
	ro, co := s.OutDims()
	src := make([]float32, s.Ni*s.Ri*s.Ci)
	w := make([]float32, s.No*s.Ni*s.K*s.K)
	for i := range src {
		src[i] = float32(i%13) * 0.125
	}
	for i := range w {
		w[i] = float32(i%7)*0.5 - 1.5
	}
	golden := make([]float32, s.No*ro*co)
	{
		cg := sw26010.NewCoreGroup(nil)
		defer cg.Close()
		swdnn.ConvExplicitRun(cg, src, w, nil, s, golden)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cg := sw26010.NewCoreGroup(nil)
			defer cg.Close()
			dst := make([]float32, s.No*ro*co)
			for iter := 0; iter < 6; iter++ {
				clear(dst)
				swdnn.ConvExplicitRun(cg, src, w, nil, s, dst)
				for i := range dst {
					if dst[i] != golden[i] {
						t.Errorf("concurrent conv corrupted output at %d: %g != %g", i, dst[i], golden[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
