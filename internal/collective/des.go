package collective

import (
	"swcaffe/internal/allreduce"
	"swcaffe/internal/des"
	"swcaffe/internal/topology"
)

// Discrete-event flush path. The engine's bucket layout, staging,
// commit protocol and attribution are backend-agnostic — only the
// collective execution differs: instead of RunGather over rank
// goroutines calling the strategy's Schedule.Run, the DES backend calls
// Schedule.RunDES on a des.Cluster — the same schedule, run by the
// resumable interpreter, which logs the payload's copies and sums and
// lands them in tiles on the caller's pool once the run's clocks are
// done (see allreduce.DESRun). Both modes flush here: the barrier is
// the one-bucket layout (Config.Barrier).

// FlushSegDES runs ReduceSeg's DES form for bucket b on every rank of
// the DES cluster, landing the payload on pool's workers, and returns
// the makespan/census and the per-rank reduced outputs — bucket b's
// range of each view, reduced in place: commit them before flushing
// again (see Bucket).
//
// The engine's DESRun — each rank's call state and the payload log —
// is taken at the first flush, from a closed engine if one left a run
// that fits (see Close), and reused after every clean one, the rule
// des.Cluster keeps for its run state: a flush that panics takes its
// DESRun, and the ops it had not landed, with it.
func (e *Engine) FlushSegDES(c *des.Cluster, b int, pool allreduce.Pool) (topology.Result, [][]float32) {
	run := e.desRun
	e.desRun = nil
	if run == nil {
		if run, _ = desRunPool.Get().(*allreduce.DESRun); run == nil || !run.Fits(e.cfg.Ranks, e.total) {
			run = allreduce.NewDESRun(e.cfg.Ranks, e.total)
		}
		if takeRunHook != nil {
			run = takeRunHook(run, e.cfg.Ranks, e.total)
		}
	}
	views, bk := e.views, e.buckets[b]
	res, outs := run.Gather(c, pool, func(r *des.Rank) {
		if e.cfg.FlushHook != nil {
			e.cfg.FlushHook(r.Rank, b)
		}
		e.strat.RunDES(run, r, views[r.Rank][bk.Lo:bk.Hi], bk.Lo, e.total, e.phaseClocks(b, r.Rank), finishFlush)
	})
	e.desRun = run
	return res, outs
}

// finishFlush ends a rank's flush: it charges the final averaging sweep
// and finishes with the reduced bucket.
func finishFlush(r *des.Rank, out []float32) {
	r.ChargeReduce(len(out))
	r.Finish(out)
}
