// multinode: demonstrate the multi-node cluster runtime — swCaffe's
// synchronous SGD where every worker's forward/backward executes as
// stream launches on its own simulated SW26010 node (swnode) and the
// packed all-reduce runs over the simulated TaihuLight interconnect
// (simnet). The run shows (1) parameters identical to serial SGD on
// the concatenated mini-batch, (2) the modeled step decomposition read
// off the node timelines plus the collective makespans, and (3) the
// simulated communication costs under the adjacent and topology-aware
// rank mappings.
package main

import (
	"fmt"
	"log"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/tensor"
	"swcaffe/internal/topology"
	"swcaffe/internal/train"
)

const (
	nodes    = 8
	subBatch = 8
	classes  = 3
	iters    = 30
)

func buildNet(batch int) (*core.Net, map[string]*tensor.Tensor, error) {
	net := core.NewNet("mlp", "data", "label")
	net.AddLayers(
		core.NewInnerProduct(core.InnerProductConfig{
			Name: "fc1", Bottom: "data", Top: "fc1", NumOutput: 24, BiasTerm: true}),
		core.NewReLU("relu1", "fc1", "fc1", 0),
		core.NewInnerProduct(core.InnerProductConfig{
			Name: "fc2", Bottom: "fc1", Top: "fc2", NumOutput: classes, BiasTerm: true}),
		core.NewSoftmaxLoss("loss", "fc2", "label", "loss"),
	)
	inputs := map[string]*tensor.Tensor{
		"data":  tensor.New(batch, 1, 5, 5),
		"label": tensor.New(batch, 1, 1, 1),
	}
	if err := net.Setup(inputs); err != nil {
		return nil, nil, err
	}
	return net, inputs, nil
}

func main() {
	ds := dataset.NewClusters(4096, classes, 1, 5, 5, 0.4, 99)
	solverCfg := core.SolverConfig{BaseLR: 0.08, Momentum: 0.9}

	// Distributed: 8 workers, sub-batch 8 each, packed gradients
	// all-reduced with recursive halving/doubling.
	dist, err := train.NewDistTrainer(train.DistConfig{
		Nodes: nodes, SubBatch: subBatch, Solver: solverCfg,
		AlgorithmName: allreduce.NameRHD,
	}, func() (*core.Net, map[string]*tensor.Tensor, error) { return buildNet(subBatch) })
	if err != nil {
		log.Fatal(err)
	}
	defer dist.Close()

	// Serial reference: one worker with the concatenated batch.
	serialNet, serialIn, err := buildNet(nodes * subBatch)
	if err != nil {
		log.Fatal(err)
	}
	serial := core.NewSolver(serialNet, solverCfg)

	for it := 0; it < iters; it++ {
		dist.LoadShards(ds, it)
		distLoss := dist.Step()
		// The serial trainer sees the union of all shards in order.
		dataset.Batch(ds, it*nodes*subBatch, serialIn["data"], serialIn["label"])
		serialLoss := serial.Step()
		if it%10 == 0 {
			fmt.Printf("iter %2d  dist loss %.4f  serial loss %.4f\n", it, distLoss, serialLoss)
		}
	}

	// Compare parameters: distributed averaging of shard gradients is
	// mathematically the full-batch gradient, so the two runs track
	// each other to float rounding.
	distParams := dist.Workers[0].Net.LearnableParams()
	serialParams := serialNet.LearnableParams()
	var worst float64
	for i := range distParams {
		if d := tensor.MaxDiff(distParams[i].Data, serialParams[i].Data); d > worst {
			worst = d
		}
	}
	fmt.Printf("\nmax parameter deviation dist-vs-serial after %d iters: %.2e\n", iters, worst)
	fmt.Printf("replica divergence across %d workers: %.2e\n", nodes, dist.ParamsDiverged())
	fmt.Printf("simulated all-reduce time (%d iters): %.4fs\n", iters, dist.CommTime)

	// The cluster runtime: every pass above ran as a launch on one of
	// 8 simulated SW26010 nodes; the modeled step composes those node
	// timelines with the collective makespans.
	st := dist.LastStep
	fmt.Printf("cluster runtime: %d simulated nodes, %d launches each; modeled last step = %.2fus compute + %.2fus exposed comm = %.2fus\n",
		nodes, dist.Node(0).Launches(), st.Compute*1e6, st.Exposed*1e6, st.StepTime*1e6)
	fmt.Printf("accumulated modeled compute %.4fs vs communication %.4fs\n", dist.ComputeTime, dist.CommTime)

	// Collective engine: overlap the all-reduce with backward, once
	// per algorithm — the engine keeps the ring bit-identical under
	// overlap via chunk-aligned buckets, and -auto picks the bucket
	// cap from the α-β cost model.
	for _, alg := range []string{allreduce.NameRHD, allreduce.NameRing} {
		t, err := train.NewDistTrainer(train.DistConfig{
			Nodes: nodes, SubBatch: subBatch, Solver: solverCfg,
			Overlap: true, AutoBucket: true, AlgorithmName: alg,
		}, func() (*core.Net, map[string]*tensor.Tensor, error) { return buildNet(subBatch) })
		if err != nil {
			log.Fatal(err)
		}
		for it := 0; it < 10; it++ {
			t.LoadShards(ds, it)
			t.Step()
		}
		eng := t.Engine()
		fmt.Printf("engine %-28s auto bucket %4d KB, %d buckets: last step %.2fus, exposed comm %.2fus (divergence %.1e)\n",
			eng.StrategyName(), eng.BucketBytes()>>10, t.Buckets(),
			t.LastStep.StepTime*1e6, t.LastStep.Exposed*1e6, t.ParamsDiverged())
		t.Close()
	}

	// Mapping comparison at a scale where the supernode boundary
	// matters (q=4 so 8 nodes span 2 supernodes).
	net4 := topology.Sunway()
	net4.SupernodeSize = 4
	for _, m := range []topology.Mapping{topology.AdjacentMapping{Q: 4}, topology.RoundRobinMapping{Q: 4}} {
		t, err := train.NewDistTrainer(train.DistConfig{
			Nodes: nodes, SubBatch: subBatch, Solver: solverCfg,
			Network: net4, Mapping: m,
		}, func() (*core.Net, map[string]*tensor.Tensor, error) { return buildNet(subBatch) })
		if err != nil {
			log.Fatal(err)
		}
		for it := 0; it < 10; it++ {
			t.LoadShards(ds, it)
			t.Step()
		}
		fmt.Printf("mapping %-12s: simulated comm for 10 iters = %.6fs\n", m.Name(), t.CommTime)
		t.Close()
	}
}
