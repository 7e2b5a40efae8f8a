package collective

import (
	"math"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/des"
	"swcaffe/internal/topology"
)

// Recycle sets how every engine's views and DES run state start until
// the returned restore runs. With poison, each view's whole array is
// filled with a NaN, and each DES run state first serves a hierarchical
// run over NaN vectors on a cluster of its own, which leaves its call
// frames, bound ranks and replay index as a closed engine of another
// shape would: the run state holds no float of its own. Without poison,
// each view is zeroed and each flush gets a new DES run state: the
// buffers an engine had before any closed.
func Recycle(poison bool) (restore func()) {
	prevView, prevRun := takeViewHook, takeRunHook
	if poison {
		takeViewHook, takeRunHook = fillNaN, poisonRun
	} else {
		takeViewHook = func(v []float32) { clear(v) }
		takeRunHook = func(_ *allreduce.DESRun, p, n int) *allreduce.DESRun { return allreduce.NewDESRun(p, n) }
	}
	return func() { takeViewHook, takeRunHook = prevView, prevRun }
}

func fillNaN(v []float32) {
	for i := range v {
		v[i] = float32(math.NaN())
	}
}

func poisonRun(run *allreduce.DESRun, p, _ int) *allreduce.DESRun {
	const n = 37
	netw := topology.Sunway()
	netw.SupernodeSize = 2
	hier, _ := allreduce.ScheduleByName(allreduce.NameHierarchical)
	run.Gather(des.NewCluster(netw, topology.AdjacentMapping{Q: 2}, p), allreduce.Pool{}, func(r *des.Rank) {
		v := make([]float32, n, n+p)
		fillNaN(v[:cap(v)])
		hier.RunDES(run, r, v, 0, n, nil, func(r *des.Rank, out []float32) { r.Finish(out) })
	})
	return run
}
