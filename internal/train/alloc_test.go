package train

import (
	"testing"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/dataset"
	"swcaffe/internal/topology"
)

// TestDESOverlapStepAllocationBudget holds a warm p = 64 DES overlap
// step to a constant number of objects per rank per bucket. At two
// buckets a step measures 21.6 (RHD, ring) and 24.6 (hierarchical) per
// rank per bucket: about 31 per rank for the compute pass, whatever the
// bucket count, and 6 per rank per flush — the result vector, the
// collective's state and two phase continuations, the engine's
// averaging continuation and the Finish method value. Nothing is per
// round or per message; one such object would add 12 or more (RHD runs
// 12 exchanges per rank per flush at p = 64, and the same step
// allocated 95, 134 and 281 per rank per bucket before the
// communication path stopped copying).
func TestDESOverlapStepAllocationBudget(t *testing.T) {
	const p, perRankPerBucket = 64, 28
	netw := topology.Sunway()
	netw.SupernodeSize = 8
	ds := dataset.NewClusters(2000, 3, 1, 3, 3, 0.4, 23)
	for _, alg := range []string{allreduce.NameRHD, allreduce.NameHierarchical, allreduce.NameRing} {
		cfg := desTwinConfig(p, netw, topology.AdjacentMapping{Q: 8}, alg, true, BackendDES)
		cfg.BucketBytes = 64 // one bucket per parameter layer of the test MLP
		d, err := NewDistTrainer(cfg, mlpFactory(cfg.SubBatch, 3))
		if err != nil {
			t.Fatal(err)
		}
		it := 0
		step := func() {
			d.LoadShards(ds, it)
			d.Step()
			it++
		}
		step() // builds the engine, the links and the scratch
		step()
		nb := len(d.LastStep.Buckets)
		if nb != 2 {
			t.Fatalf("%s: %d buckets, want 2", alg, nb)
		}
		if got := testing.AllocsPerRun(3, step); got > float64(perRankPerBucket*p*nb) {
			t.Errorf("%s: %v allocations per warm step = %.1f per rank per bucket, budget %d",
				alg, got, got/float64(p*nb), perRankPerBucket)
		}
		d.Close()
	}
}
