// allreduce-tuning: pick the right gradient-synchronization algorithm
// for a given (node count, gradient size) on the TaihuLight network —
// the decision the paper's Sec. V-A walks through. The example prints
// the analytic decision surface and validates one cell against the
// message-level simulator.
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

func main() {
	net := topology.Sunway()

	fmt.Println("best all-reduce per (gradient size, nodes) on TaihuLight:")
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "bytes\\nodes")
	nodeCounts := []int{4, 16, 64, 256, 1024}
	for _, p := range nodeCounts {
		fmt.Fprintf(tw, "\t%d", p)
	}
	fmt.Fprintln(tw)
	for _, nBytes := range []float64{1 << 10, 256 << 10, 16 << 20, 232.6e6} {
		fmt.Fprintf(tw, "%.3g", nBytes)
		for _, p := range nodeCounts {
			type cand struct {
				name string
				t    float64
			}
			cands := []cand{
				{"ring", allreduce.RingCost(net, p, nBytes, true).Total()},
				{"binomial", allreduce.BinomialCost(net, p, nBytes, true).Total()},
				{"rhd", allreduce.OriginalRHDCost(net, p, nBytes, true).Total()},
				{"rhd+topo", allreduce.ImprovedRHDCost(net, p, nBytes, true).Total()},
				{"hier", allreduce.HierarchicalCost(net, p, nBytes, true).Total()},
			}
			best := cands[0]
			for _, c := range cands[1:] {
				if c.t < best.t {
					best = c
				}
			}
			fmt.Fprintf(tw, "\t%s %.3gms", best.name, best.t*1e3)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	// Validate the headline cell (AlexNet gradient, 1024 nodes is too
	// many goroutine-heavy runs for an example; use 256) against the
	// message-level simulation.
	const p = 256
	const nBytes = 232.6e6
	fmt.Printf("\nvalidating p=%d, %.4g bytes against the simulator:\n", p, nBytes)
	for _, m := range []topology.Mapping{
		topology.AdjacentMapping{Q: 64},
		topology.RoundRobinMapping{Q: 64},
	} {
		net := topology.Sunway()
		net.SupernodeSize = 64 // 4 supernodes at p=256
		cl := simnet.NewCluster(net, m, p)
		cl.ReduceOnCPE = true
		length := 2048
		cl.BytesPerElem = nBytes / float64(length)
		inputs := make([][]float32, p)
		for r := range inputs {
			inputs[r] = make([]float32, length)
		}
		res := cl.Run(func(n *simnet.Node) {
			allreduce.RecursiveHalvingDoubling(n, inputs[n.Rank])
		})
		var analytic float64
		if m.Name() == "adjacent" {
			analytic = allreduce.OriginalRHDCost(net, p, nBytes, true).Total()
		} else {
			analytic = allreduce.ImprovedRHDCost(net, p, nBytes, true).Total()
		}
		fmt.Printf("  %-12s simulated %.4fs, analytic %.4fs\n", m.Name(), res.Time, analytic)
	}
}
