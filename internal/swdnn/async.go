package swdnn

import (
	"swcaffe/internal/sw26010"
	"swcaffe/internal/swnode"
)

// SumAsync launches the elementwise accumulation acc += addend on st
// (see SumRun) — the CPE-cluster gradient summation of Algorithm 1
// line 8, which the 4-CG trainer chains behind its quarter-batch
// passes.
func SumAsync(st *swnode.Stream, acc, addend []float32, deps ...*swnode.Event) *swnode.Event {
	if len(acc) != len(addend) {
		panic("swdnn: SumAsync length mismatch")
	}
	return st.Launch(func(cg *sw26010.CoreGroup) float64 {
		return SumRun(cg, acc, addend)
	}, deps...)
}
