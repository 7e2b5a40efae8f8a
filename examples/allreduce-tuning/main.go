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

	// Validate the headline cell (AlexNet gradient, 256 nodes) against the
	// message-level simulator's clocks, walked by Schedule.Price.
	const p = 256
	const nBytes = 232.6e6
	rhd, _ := allreduce.ScheduleByName(allreduce.NameRHD)
	fmt.Printf("\nvalidating p=%d, %.4g bytes against the simulator:\n", p, nBytes)
	for _, m := range []topology.Mapping{
		topology.AdjacentMapping{Q: 64},
		topology.RoundRobinMapping{Q: 64},
	} {
		net := topology.Sunway()
		net.SupernodeSize = 64 // 4 supernodes at p=256
		fab := topology.NewFabric(net, m, p)
		fab.ReduceOnCPE = true
		const length = 2048
		fab.BytesPerElem = nBytes / length
		res := rhd.Price(&fab, 0, length, length)
		var analytic float64
		if m.Name() == "adjacent" {
			analytic = allreduce.OriginalRHDCost(net, p, nBytes, true).Total()
		} else {
			analytic = allreduce.ImprovedRHDCost(net, p, nBytes, true).Total()
		}
		fmt.Printf("  %-12s simulated %.4fs, analytic %.4fs\n", m.Name(), res.Time, analytic)
	}
}
