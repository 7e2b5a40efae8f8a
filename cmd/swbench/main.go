// Command swbench regenerates the tables and figures of the swCaffe
// paper's evaluation section. With no arguments it runs everything;
// pass artifact names to select a subset.
//
//	swbench [-p n,n,...] [-backend des|goroutine] [-io]
//	        [table1 figure2 table2 figure6 figure7 figure8 figure9
//	         table3 figure10 figure11 funcscale io pack gemm allreduce]
//
// -p, -backend and -io parameterize the funcscale artifact: -p is a
// comma-separated rank list (e.g. -p 512,1024,4096), -backend picks
// the cluster scheduler ("des" for the single-threaded discrete-event
// backend that makes the paper-scale points feasible, "goroutine" for
// the concurrent oracle), and -io appends the input-pipeline sweep
// (shard reads priced through the pario model at p concurrent readers,
// prefetch attached, single-split layout vs the stripe advisor's
// pick). They apply only to funcscale.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"swcaffe/internal/experiments"
	"swcaffe/internal/train"
)

var artifacts = []struct {
	Name string
	Run  func()
}{
	{"table1", func() { experiments.Table1(os.Stdout) }},
	{"figure2", func() { experiments.Figure2(os.Stdout) }},
	{"table2", func() { experiments.Table2(os.Stdout) }},
	{"figure6", func() { experiments.Figure6(os.Stdout) }},
	{"figure7", func() { experiments.Figure7(os.Stdout, 100e6) }},
	{"figure8", func() { experiments.Figure8(os.Stdout) }},
	{"figure9", func() { experiments.Figure9(os.Stdout) }},
	{"table3", func() { experiments.Table3(os.Stdout) }},
	{"figure10", func() { experiments.Figure10(os.Stdout) }},
	{"figure11", func() { experiments.Figure11(os.Stdout) }},
	{"funcscale", runFuncScale},
	{"io", func() { experiments.IOStriping(os.Stdout) }},
	{"pack", func() { experiments.PackAblation(os.Stdout) }},
	{"gemm", func() { experiments.GEMMAblation(os.Stdout) }},
	{"allreduce", func() { experiments.AllreduceAblation(os.Stdout) }},
	{"bn", func() { experiments.BNAblation(os.Stdout) }},
	{"sum", func() { experiments.SumAblation(os.Stdout) }},
	{"mapping", func() { experiments.MappingAblation(os.Stdout) }},
	{"batch", func() { experiments.BatchSweep(os.Stdout) }},
}

var (
	rankList = flag.String("p", "", "funcscale: comma-separated rank list (e.g. 512,1024,4096); empty = the default tiers")
	backend  = flag.String("backend", "", `funcscale: cluster scheduler, "des" or "goroutine" (default goroutine)`)
	ioPipe   = flag.Bool("io", false, "funcscale: add the input-pipeline sweep (priced prefetch reads, single-split vs stripe advisor)")
)

// funcScaleIORanks is the default rank list of the -io sweep: the
// goroutine tier plus the p = 128 contention point of the CI smoke.
var funcScaleIORanks = []int{4, 8, 128}

// runFuncScale dispatches the funcscale artifact: the default tiered
// sweep, or a single parameterized tier when -p is given.
func runFuncScale() {
	if *rankList == "" {
		if *backend != "" && *backend != train.BackendGoroutine {
			fmt.Fprintf(os.Stderr, "swbench: -backend %s requires an explicit -p rank list\n", *backend)
			os.Exit(2)
		}
		experiments.FunctionalScaling(os.Stdout)
		if *ioPipe {
			experiments.FunctionalScalingIO(os.Stdout, funcScaleIORanks, *backend)
		}
		return
	}
	var ranks []int
	for _, part := range strings.Split(*rankList, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			fmt.Fprintf(os.Stderr, "swbench: bad -p entry %q (want a positive rank count)\n", part)
			os.Exit(2)
		}
		ranks = append(ranks, p)
	}
	switch *backend {
	case "", train.BackendGoroutine, train.BackendDES:
	default:
		fmt.Fprintf(os.Stderr, "swbench: unknown -backend %q (valid: %q, %q)\n", *backend, train.BackendDES, train.BackendGoroutine)
		os.Exit(2)
	}
	experiments.FunctionalScalingAt(os.Stdout, ranks, *backend)
	if *ioPipe {
		experiments.FunctionalScalingIO(os.Stdout, ranks, *backend)
	}
}

func main() {
	flag.Parse()

	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[a] = true
	}
	if len(want) > 0 {
		known := map[string]bool{}
		for _, a := range artifacts {
			known[a.Name] = true
		}
		for name := range want {
			if !known[name] {
				fmt.Fprintf(os.Stderr, "swbench: unknown artifact %q\n", name)
				fmt.Fprint(os.Stderr, "known:")
				for _, a := range artifacts {
					fmt.Fprintf(os.Stderr, " %s", a.Name)
				}
				fmt.Fprintln(os.Stderr)
				os.Exit(2)
			}
		}
	}
	for _, a := range artifacts {
		if len(want) == 0 || want[a.Name] {
			a.Run()
		}
	}
}
