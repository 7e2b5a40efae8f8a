package experiments

import (
	"fmt"
	"io"

	"swcaffe/internal/sw26010"
	"swcaffe/internal/swdnn"
)

// Table2Row is one VGG-16 convolution layer of paper Table II.
type Table2Row struct {
	Name  string
	Shape swdnn.ConvShape
	// Per pass: implicit plan, explicit plan, the faster (check Feasible).
	Fwd, BwdW, BwdI struct {
		Implicit swdnn.Plan
		Explicit swdnn.Plan
		Best     swdnn.Plan
	}
}

// VGG16ConvLayers returns the 13 convolution layers of VGG-16 at the
// given per-CG batch (Table II uses 128).
func VGG16ConvLayers(batch int) []struct {
	Name  string
	Shape swdnn.ConvShape
} {
	mk := func(name string, ni, no, size int) struct {
		Name  string
		Shape swdnn.ConvShape
	} {
		return struct {
			Name  string
			Shape swdnn.ConvShape
		}{name, swdnn.ConvShape{B: batch, Ni: ni, Ri: size, Ci: size, No: no, K: 3, S: 1, P: 1}}
	}
	return []struct {
		Name  string
		Shape swdnn.ConvShape
	}{
		mk("1_1", 3, 64, 224), mk("1_2", 64, 64, 224),
		mk("2_1", 64, 128, 112), mk("2_2", 128, 128, 112),
		mk("3_1", 128, 256, 56), mk("3_2", 256, 256, 56), mk("3_3", 256, 256, 56),
		mk("4_1", 256, 512, 28), mk("4_2", 512, 512, 28), mk("4_3", 512, 512, 28),
		mk("5_1", 512, 512, 14), mk("5_2", 512, 512, 14), mk("5_3", 512, 512, 14),
	}
}

// Table2 evaluates implicit vs explicit GEMM plans for every VGG-16
// convolution layer at batch 128 on one core group (paper Table II)
// and prints the comparison. The per-layer plan searches fan out
// across goroutines (the layers are independent and the plan cache is
// concurrency-safe); rows render in layer order afterwards.
func Table2(w io.Writer) []Table2Row {
	hw := sw26010.Default()
	layers := VGG16ConvLayers(128)
	rows := make([]Table2Row, len(layers))
	parallelFor(len(layers), func(i int) {
		l := layers[i]
		r := &rows[i]
		r.Name, r.Shape = l.Name, l.Shape
		r.Fwd.Implicit, r.Fwd.Explicit, r.Fwd.Best = swdnn.ConvPlans(hw, l.Shape, swdnn.Forward)
		r.BwdW.Implicit, r.BwdW.Explicit, r.BwdW.Best = swdnn.ConvPlans(hw, l.Shape, swdnn.BackwardWeight)
		r.BwdI.Implicit, r.BwdI.Explicit, r.BwdI.Best = swdnn.ConvPlans(hw, l.Shape, swdnn.BackwardInput)
	})

	section(w, "Table II: explicit vs implicit GEMM conv plans, VGG-16, batch=128, one CG")
	tw := newTab(w)
	fmt.Fprintln(tw, "conv\tNi\tNo\tCi/Ri\tfwd impl\tfwd expl\tGflops\twdiff impl\twdiff expl\tindiff impl\tindiff expl")
	for i := range rows {
		r := &rows[i]
		t := func(p swdnn.Plan) string {
			if !p.Feasible {
				return "-"
			}
			return fixed(p.Time, 2)
		}
		// in-diff is not computed for the first layer (no gradient to data)
		indI, indE := t(r.BwdI.Implicit), t(r.BwdI.Explicit)
		if r.Name == "1_1" {
			indI, indE = "NA", "NA"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Name, r.Shape.Ni, r.Shape.No, r.Shape.Ci,
			t(r.Fwd.Implicit), t(r.Fwd.Explicit), fixed(r.Fwd.Best.Gflops(), 2),
			t(r.BwdW.Implicit), t(r.BwdW.Explicit), indI, indE)
	}
	tw.Flush()
	fmt.Fprintln(w, "(dash = plan infeasible for this shape; Gflops = flops / best forward time)")
	return rows
}
