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

// FlushSegDES runs ReduceSeg's DES form for bucket b on every rank of
// the DES cluster and returns the makespan/census and the per-rank
// reduced outputs — bucket b's range of each view, reduced in place:
// commit them before flushing again (see Bucket).
func (e *Engine) FlushSegDES(c *des.Cluster, b int) (topology.Result, [][]float32) {
	views, bk := e.views, e.buckets[b]
	return c.RunGather(func(r *des.Rank) {
		if e.cfg.FlushHook != nil {
			e.cfg.FlushHook(r.Rank, b)
		}
		e.strat.RunDES(r, views[r.Rank][bk.Lo:bk.Hi], bk.Lo, e.total, e.phaseClocks(b, r.Rank), func(out []float32) {
			r.ChargeReduce(len(out))
			r.Finish(out)
		})
	})
}
