// Command swallreduce explores the gradient-synchronization
// collectives: it verifies correctness on real payloads, reproduces
// the Fig. 7 topology-aware comparison, sweeps algorithms across node
// counts and message sizes, and reports the collective engine's
// auto-bucket choice for overlapping each algorithm with backward.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/collective"
	"swcaffe/internal/experiments"
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// bucketAdvisory prints, per algorithm, the bucket cap the α-β
// selector would choose for overlapping a gradient of the given size
// with backward (see collective.SelectBucketBytes and the formula at
// allreduce.CostByName). The layer histogram is synthetic — 16 equal
// layers whose backward spans twice the packed improved-RHD time — so
// the table is a tuning aid, not a model-specific decision; swtrain
// -auto-bucket makes the real per-model choice.
func bucketAdvisory(p int, nBytes float64) {
	const layers = 16
	elems := int(nBytes/4) / layers
	if elems < 1 {
		elems = 1
	}
	params := make([]collective.ParamInfo, layers)
	for i := range params {
		params[i] = collective.ParamInfo{Layer: i, Elems: elems}
	}
	netw := topology.Sunway()
	backward := 2 * allreduce.ImprovedRHDCost(netw, p, nBytes, true).Total()
	done := make([]float64, layers)
	for l := 0; l < layers; l++ {
		done[l] = backward * float64(layers-l) / layers
	}
	mapping := topology.RoundRobinMapping{Q: netw.SupernodeSize}
	fmt.Printf("\n=== auto-bucket advisory: p=%d, %.4g bytes, backward window %.4fs ===\n", p, nBytes, backward)
	for _, name := range collective.AutoAlgorithms {
		strat, err := collective.StrategyFor(name, nil, mapping, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		bytes, exposed := collective.SelectBucketBytes(strat, netw, p, true, params, layers, done, backward)
		fmt.Printf("%-28s bucket %8d KB  est. exposed comm %.6fs\n", name, bytes>>10, exposed)
	}
	if plan, err := collective.SelectPlan(netw, mapping, p, true, params, layers, done, backward); err == nil {
		fmt.Printf("SelectPlan would run: %s with %d KB buckets (est. exposed %.6fs)\n",
			plan.Algorithm, plan.BucketBytes>>10, plan.Exposed)
	}
}

// crossingsTable runs every algorithm live under both rank mappings
// on a q-sized-supernode cluster and reports the simulated makespan
// next to the traffic that actually crossed supernode boundaries —
// the column that makes the hierarchy win legible: the round-robin
// renumbering moves RHD's crossings to the cheap rounds (fewer bytes,
// same messages), while the hierarchical schedule eliminates all but
// the leaders' 1/g-sized exchanges under either mapping.
func crossingsTable(p, q int, nBytes float64) {
	netw := topology.Sunway()
	netw.SupernodeSize = q
	fmt.Printf("\n=== supernode crossings: p=%d, q=%d, %.4g bytes (live simulation) ===\n", p, q, nBytes)
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tmapping\tmakespan\tcross msgs\tcross MB\ttotal msgs")
	for _, name := range allreduce.Names() {
		a, err := allreduce.ByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, m := range []topology.Mapping{
			topology.AdjacentMapping{Q: q},
			topology.RoundRobinMapping{Q: q},
		} {
			cl := simnet.NewCluster(netw, m, p)
			cl.ReduceOnCPE = true
			length := 4096
			cl.BytesPerElem = nBytes / float64(length)
			inputs := make([][]float32, p)
			for r := range inputs {
				inputs[r] = make([]float32, length)
			}
			res := cl.Run(func(n *simnet.Node) { a(n, inputs[n.Rank]) })
			fmt.Fprintf(tw, "%s\t%s\t%.6fs\t%d\t%.1f\t%d\n",
				name, m.Name(), res.Time, res.CrossMsgs, float64(res.CrossBytes)/1e6, res.Msgs)
		}
	}
	tw.Flush()
}

func main() {
	nodes := flag.Int("nodes", 64, "simulated node count for the live run")
	bytes := flag.Float64("bytes", 232.6e6, "gradient size in bytes (AlexNet = 232.6e6)")
	alg := flag.String("alg", allreduce.NameRHD, "algorithm: ring | binomial-tree | recursive-halving-doubling | hierarchical (hier)")
	q := flag.Int("q", 16, "supernode size for the crossings table (TaihuLight's q=256 needs -nodes > 256 to cross)")
	flag.Parse()
	// -bytes is a float: NaN must fail too, so test for the good range.
	// Its cap keeps 2·p·bytes, the traffic census, inside an int64 up
	// to p = 4096.
	if *nodes < 1 || *q < 1 || !(*bytes > 0 && *bytes <= 1e15) {
		fmt.Fprintf(os.Stderr, "swallreduce: need -nodes >= 1, -q >= 1 and 0 < -bytes <= 1e15 (got -nodes %d -q %d -bytes %g)\n", *nodes, *q, *bytes)
		os.Exit(2)
	}

	experiments.Figure6(os.Stdout)
	experiments.Figure7(os.Stdout, *bytes)
	experiments.AllreduceAblation(os.Stdout)
	bucketAdvisory(*nodes, *bytes)
	crossingsTable(*nodes, *q, *bytes)

	fmt.Printf("\n=== live simulated run: %s, p=%d, %.4g bytes ===\n", *alg, *nodes, *bytes)
	a, err := allreduce.ByName(*alg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	net := topology.Sunway()
	for _, m := range []topology.Mapping{
		topology.AdjacentMapping{Q: net.SupernodeSize},
		topology.RoundRobinMapping{Q: net.SupernodeSize},
	} {
		cl := simnet.NewCluster(net, m, *nodes)
		cl.ReduceOnCPE = true
		length := 4096
		cl.BytesPerElem = *bytes / float64(length)
		inputs := make([][]float32, *nodes)
		for r := range inputs {
			inputs[r] = make([]float32, length)
			for i := range inputs[r] {
				inputs[r][i] = float32(r + i)
			}
		}
		res := cl.Run(func(n *simnet.Node) {
			out := a(n, inputs[n.Rank])
			// Spot-check the sum on rank 0.
			if n.Rank == 0 {
				want := float32(0)
				for r := 0; r < *nodes; r++ {
					want += float32(r)
				}
				if out[0] != want {
					panic(fmt.Sprintf("allreduce sum wrong: got %g want %g", out[0], want))
				}
			}
		})
		fmt.Printf("%-22s makespan %.6fs (effective %.2f GB/s per node)\n",
			m.Name(), res.Time, 2**bytes/res.Time/1e9)
	}
}
