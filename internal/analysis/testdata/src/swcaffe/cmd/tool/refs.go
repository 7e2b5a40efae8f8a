package main

import (
	"swcaffe/internal/core"
	"swcaffe/internal/elastic"
	"swcaffe/internal/obs"
	"swcaffe/internal/pario"
	"swcaffe/internal/perf"
	"swcaffe/internal/swnode"
	"swcaffe/internal/topology"
	"swcaffe/internal/train"
)

// refs uses every export the other analyzers' fixtures declare, so
// deadexport reports only the cases seeded in internal/perf.
var refs = []any{
	core.Report, core.Shout, core.Suppressed,
	elastic.Draw,
	obs.Bad, obs.SortedKeys, obs.LoopLocal, obs.Suppressed,
	pario.Bare,
	swnode.Spawn,
	topology.Pick,
	train.Leak, train.Joined, train.Suppressed,
	perf.Square{},
}
