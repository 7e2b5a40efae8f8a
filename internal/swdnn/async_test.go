package swdnn_test

import (
	"testing"

	"swcaffe/internal/sw26010"
	"swcaffe/internal/swdnn"
	"swcaffe/internal/swnode"
)

// TestAsyncEntryPointsMatchSync: the stream-accepting SumAsync must
// produce the same output and simulated time as SumRun, with the
// hazard on its producer expressed through stream order and an event
// (conv -> sum chained on one stream here).
func TestAsyncEntryPointsMatchSync(t *testing.T) {
	node := swnode.NewNode(nil)
	defer node.Close()

	s := swdnn.ConvShape{B: 1, Ni: 3, Ri: 11, Ci: 11, No: 5, K: 3, S: 2, P: 1}
	ro, co := s.OutDims()
	src := make([]float32, s.Ni*s.Ri*s.Ci)
	w := make([]float32, s.No*s.Ni*s.K*s.K)
	bias := make([]float32, s.No)
	for i := range src {
		src[i] = float32(i%13) * 0.125
	}
	for i := range w {
		w[i] = float32(i%7)*0.5 - 1.5
	}
	for i := range bias {
		bias[i] = float32(i) * 0.25
	}

	// Synchronous reference on a fresh CoreGroup.
	refDst := make([]float32, s.No*ro*co)
	refAcc := make([]float32, len(refDst))
	cg := sw26010.NewCoreGroup(nil)
	defer cg.Close()
	tConv := swdnn.ConvExplicitRun(cg, src, w, bias, s, refDst)
	tSum := swdnn.SumRun(cg, refAcc, refDst)

	// Async: conv then dependent sum on one stream.
	dst := make([]float32, s.No*ro*co)
	acc := make([]float32, len(dst))
	st := node.NewStream()
	evConv := st.Launch(func(cg *sw26010.CoreGroup) float64 {
		return swdnn.ConvExplicitRun(cg, src, w, bias, s, dst)
	})
	evSum := swdnn.SumAsync(st, acc, dst, evConv)
	if got := evConv.Wait(); got != tConv {
		t.Fatalf("async conv simulated time %v != sync %v", got, tConv)
	}
	if got := evSum.Wait(); got != tSum {
		t.Fatalf("async sum simulated time %v != sync %v", got, tSum)
	}
	node.Sync()
	for i := range dst {
		if dst[i] != refDst[i] {
			t.Fatalf("async conv output diverges at %d", i)
		}
		if acc[i] != refAcc[i] {
			t.Fatalf("async sum output diverges at %d", i)
		}
	}
	if evSum.SimStart() < evConv.SimEnd() {
		t.Fatalf("dependent sum modeled before conv finished: %v < %v", evSum.SimStart(), evConv.SimEnd())
	}

	// Bad arguments surface on the caller, not inside a goroutine.
	defer func() {
		if recover() == nil {
			t.Fatal("SumAsync with mismatched operands must panic synchronously")
		}
	}()
	swdnn.SumAsync(st, make([]float32, 4), make([]float32, 3))
}
