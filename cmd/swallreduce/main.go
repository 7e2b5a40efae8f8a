// Command swallreduce explores the gradient-synchronization
// collectives: it verifies correctness on real payloads, reproduces
// the Fig. 7 topology-aware comparison, sweeps algorithms across node
// counts and message sizes, and reports the collective engine's
// auto-bucket choice for overlapping each algorithm with backward.
package main

import (
	"flag"
	"fmt"
	"io"
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
		strat, err := collective.StrategyFor(name, mapping, p)
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

// crossingsTable prices every algorithm under both rank mappings on a
// q-sized-supernode cluster and reports the makespan next to the
// traffic that crossed supernode boundaries — the column that makes the
// hierarchy win legible: the round-robin renumbering moves RHD's
// crossings to the cheap rounds (fewer bytes, same messages), while the
// hierarchical schedule eliminates all but the leaders' 1/g-sized
// exchanges under either mapping.
func crossingsTable(p, q int, nBytes float64) {
	netw := topology.Sunway()
	netw.SupernodeSize = q
	fmt.Printf("\n=== supernode crossings: p=%d, q=%d, %.4g bytes (priced) ===\n", p, q, nBytes)
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tmapping\tmakespan\tcross msgs\tcross MB\ttotal msgs")
	for _, name := range allreduce.Names() {
		sched, err := allreduce.ScheduleByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, m := range []topology.Mapping{
			topology.AdjacentMapping{Q: q},
			topology.RoundRobinMapping{Q: q},
		} {
			fab := topology.NewFabric(netw, m, p)
			fab.ReduceOnCPE = true
			fab.BytesPerElem = nBytes / liveLength
			res := sched.Price(&fab, 0, liveLength, liveLength)
			fmt.Fprintf(tw, "%s\t%s\t%.6fs\t%d\t%.1f\t%d\n",
				name, m.Name(), res.Time, res.CrossMsgs, float64(res.CrossBytes)/1e6, res.Msgs)
		}
	}
	tw.Flush()
}

// liveLength is the element count of the live run's and the crossings
// table's vectors; each element is priced at bytes/liveLength.
const liveLength = 4096

// liveRun runs the named algorithm on a simulated p-node TaihuLight
// under both rank mappings, prints each makespan, and checks every
// element of rank 0's result. The inputs are small integers, so every
// association order sums them exactly, and the reference is an int64
// sum: a float32 sum of larger values rounds differently in different
// orders once its partial sums pass 2^24, as p in the thousands makes
// them.
func liveRun(w io.Writer, name string, a allreduce.Algorithm, p int, bytes float64) error {
	fmt.Fprintf(w, "\n=== live simulated run: %s, p=%d, %.4g bytes ===\n", name, p, bytes)
	inputs := make([][]float32, p)
	want := make([]int64, liveLength)
	for r := range inputs {
		inputs[r] = make([]float32, liveLength)
		for i := range inputs[r] {
			v := (r+i)%17 - 8
			inputs[r][i] = float32(v)
			want[i] += int64(v)
		}
	}
	net := topology.Sunway()
	for _, m := range []topology.Mapping{
		topology.AdjacentMapping{Q: net.SupernodeSize},
		topology.RoundRobinMapping{Q: net.SupernodeSize},
	} {
		cl := simnet.NewCluster(net, m, p)
		cl.ReduceOnCPE = true
		cl.BytesPerElem = bytes / liveLength
		res, outs := cl.RunGather(func(n *simnet.Node) []float32 { return a(n, inputs[n.Rank]) })
		for i, v := range outs[0] {
			if v != float32(want[i]) {
				return fmt.Errorf("%s allreduce sum wrong: rank 0 element %d is %g, want %d", m.Name(), i, v, want[i])
			}
		}
		fmt.Fprintf(w, "%-22s makespan %.6fs (effective %.2f GB/s per node)\n",
			m.Name(), res.Time, 2*bytes/res.Time/1e9)
	}
	return nil
}

func main() {
	nodes := flag.Int("nodes", 64, "simulated node count for the live run")
	bytes := flag.Float64("bytes", 232.6e6, "gradient size in bytes (AlexNet = 232.6e6)")
	alg := flag.String("alg", allreduce.NameRHD, "algorithm: ring | binomial-tree | recursive-halving-doubling | hierarchical (hier)")
	q := flag.Int("q", 16, "supernode size for the crossings table (TaihuLight's q=256 needs -nodes > 256 to cross)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "swallreduce: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	// -bytes is a float: NaN must fail too, so test for the good range.
	// Its cap keeps 2·p·bytes, the traffic census, inside an int64 up
	// to p = 4096.
	if *nodes < 1 || *q < 1 || !(*bytes > 0 && *bytes <= 1e15) {
		fmt.Fprintf(os.Stderr, "swallreduce: need -nodes >= 1, -q >= 1 and 0 < -bytes <= 1e15 (got -nodes %d -q %d -bytes %g)\n", *nodes, *q, *bytes)
		os.Exit(2)
	}
	a, err := allreduce.ByName(*alg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swallreduce: %v\n", err)
		os.Exit(2)
	}

	experiments.Figure6(os.Stdout)
	experiments.Figure7(os.Stdout, *bytes)
	experiments.AllreduceAblation(os.Stdout)
	bucketAdvisory(*nodes, *bytes)
	crossingsTable(*nodes, *q, *bytes)

	if err := liveRun(os.Stdout, *alg, a, *nodes, *bytes); err != nil {
		fmt.Fprintf(os.Stderr, "swallreduce: %v\n", err)
		os.Exit(1)
	}
}
