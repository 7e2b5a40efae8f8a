package experiments

import (
	"fmt"
	"io"

	"swcaffe/internal/sw26010"
	"swcaffe/internal/swdnn"
)

// GEMMRow is one point of the X3 GEMM ablation.
type GEMMRow struct {
	Dim        int
	PlanTime   float64
	PlanGflops float64
	NoRLCTime  float64 // register communication disabled
	Block      [3]int
}

// GEMMAblation sweeps square GEMMs and compares the register-
// communication design against a variant that fetches the remote tiles
// from main memory instead (Principle 4 ablation: RLC keeps 7/8 of the
// A and B tiles off the memory bus).
func GEMMAblation(w io.Writer) []GEMMRow {
	hw := sw26010.Default()
	dims := []int{64, 128, 256, 512, 1024, 2048}
	rows := make([]GEMMRow, len(dims))
	parallelFor(len(dims), func(i int) {
		n := dims[i]
		p := swdnn.GEMMPlan(hw, n, n, n)
		noRLC := swdnn.GEMMPlanNoRLC(hw, n, n, n)
		rows[i] = GEMMRow{Dim: n, PlanTime: p.Time, PlanGflops: p.Gflops(), NoRLCTime: noRLC.Time, Block: p.Block}
	})
	section(w, "Ablation: GEMM with vs without register-level communication")
	tw := newTab(w)
	fmt.Fprintln(tw, "n (square)\twith RLC\tGflops\twithout RLC\tslowdown\tblocks")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%sx\t%v\n",
			r.Dim, fmtTime(r.PlanTime), fixed(r.PlanGflops, 1), fmtTime(r.NoRLCTime), fixed(r.NoRLCTime/r.PlanTime, 2), r.Block)
	}
	tw.Flush()
	return rows
}
