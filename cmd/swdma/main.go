// Command swdma explores the SW26010 DMA bandwidth model (paper
// Fig. 2) and cross-checks it against the functional simulator: it
// prints the analytic curves and then measures a few points by
// actually running DMA transfers on the simulated CPE mesh.
package main

import (
	"flag"
	"fmt"
	"os"

	"swcaffe/internal/experiments"
	"swcaffe/internal/sw26010"
)

func main() {
	verify := flag.Bool("verify", true, "cross-check the model against the functional simulator")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "swdma: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	experiments.Figure2(os.Stdout)
	if !*verify {
		return
	}

	fmt.Println("\n=== functional cross-check: simulated mesh vs model ===")
	hw := sw26010.Default()
	cg := sw26010.NewCoreGroup(hw)
	fmt.Printf("%-12s %-8s %-12s %-12s\n", "size/CPE", "CPEs", "model", "simulated")
	for _, size := range []int{512, 2048, 8192, 32768} {
		elems := size / 4
		mem := make([]float32, elems*sw26010.CPEsPerCG)
		t := cg.Run(func(pe *sw26010.CPE) {
			buf := pe.Alloc(elems)
			defer pe.Release(elems)
			pe.DMAGet(buf, mem[pe.ID*elems:(pe.ID+1)*elems])
		})
		model := hw.DMATime(sw26010.DMAGet, int64(size), sw26010.CPEsPerCG, int64(size))
		fmt.Printf("%-12d %-8d %-12.4g %-12.4g\n", size, sw26010.CPEsPerCG, model, t)
	}
	st := cg.Stats()
	fmt.Printf("total simulated DMA: %.1f MB get, %.1f MB put\n",
		float64(st.DMAGetBytes)/1e6, float64(st.DMAPutBytes)/1e6)
}
