package collective

import (
	"swcaffe/internal/des"
	"swcaffe/internal/topology"
)

// Discrete-event flush path. The engine's bucket layout, staging,
// commit protocol and attribution are backend-agnostic — only the
// collective execution differs: instead of RunGather over rank
// goroutines calling the strategy's Schedule.Run, the DES backend calls
// Schedule.RunDES on a des.Cluster — the same schedule, run by the
// resumable interpreter. Both modes flush here: the barrier is the
// one-bucket layout (Config.Barrier).

// ReduceSegDES is the DES form of ReduceSeg: it runs the strategy's
// collective over bucket b on one DES rank and fires done with the
// reduced bucket after charging the final averaging sweep.
func (e *Engine) ReduceSegDES(r *des.Rank, b int, pack []float32, done func([]float32)) {
	if e.cfg.FlushHook != nil {
		e.cfg.FlushHook(r.Rank, b)
	}
	bk := e.buckets[b]
	e.strat.RunDES(r, pack[bk.Lo:bk.Hi], bk.Lo, e.total, func(out []float32) {
		r.ChargeReduce(len(out))
		done(out)
	})
}

// FlushSegDES runs bucket b's collective over every rank of the DES
// cluster and returns the makespan/census and the per-rank reduced
// outputs — bucket b's range of each view, reduced in place: commit
// them before flushing again (see Bucket).
func (e *Engine) FlushSegDES(c *des.Cluster, b int) (topology.Result, [][]float32) {
	views := e.views
	return c.RunGather(func(r *des.Rank) {
		e.ReduceSegDES(r, b, views[r.Rank], r.Finish)
	})
}
