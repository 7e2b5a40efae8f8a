package experiments

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"swcaffe/internal/models"
	"swcaffe/internal/perf"
	"swcaffe/internal/sw26010"
	"swcaffe/internal/swdnn"
	"swcaffe/internal/train"
)

// BNRow compares the LRN and BN AlexNet variants on a device.
type BNRow struct {
	Device string
	LRN    float64 // iteration seconds
	BN     float64
}

// BNAblation evaluates the paper's AlexNet refinement ("changing the
// local response normalization (LRN) to batch normalization (BN)",
// Sec. VI-A): iteration time of the two variants on the SW26010 and
// the K40m.
func BNAblation(w io.Writer) []BNRow {
	lrnBuild, _ := models.ByName("alexnet-lrn")
	bnBuild, _ := models.ByName("alexnet-bn")
	var rows []BNRow
	section(w, "Ablation: AlexNet LRN vs BatchNorm refinement (batch 256)")
	tw := newTab(w)
	fmt.Fprintln(tw, "device\tLRN iter\tBN iter\tBN/LRN")
	for _, dev := range []perf.Device{perf.NewSWCG(), perf.NewK40m()} {
		batch := 256
		if dev.Name() == "SW26010" {
			batch = 64 // per core group
		}
		r := BNRow{Device: dev.Name(), LRN: lrnBuild(batch).Total(dev).Total(), BN: bnBuild(batch).Total(dev).Total()}
		rows = append(rows, r)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\n", r.Device, fmtTime(r.LRN), fmtTime(r.BN), r.BN/r.LRN)
	}
	tw.Flush()
	return rows
}

// SumRow compares the MPE and CPE-cluster gradient summations.
type SumRow struct {
	Elems   int
	MPETime float64
	CPETime float64
}

// SumAblation runs the Sec. V-A summation comparison functionally on
// the simulator across payload sizes: the CPE path wins once the
// descriptor latency amortizes, which is why swCaffe packs gradients
// before reducing. The rows are computed once per process (see
// sumRows); every call prints and returns a copy of them.
func SumAblation(w io.Writer) []SumRow {
	rows := slices.Clone(sumRows())
	section(w, "Ablation: gradient summation on MPE vs CPE clusters")
	tw := newTab(w)
	fmt.Fprintln(tw, "elements\tMPE\tCPE mesh\tspeedup")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.2fx\n", r.Elems, fmtTime(r.MPETime), fmtTime(r.CPETime), r.MPETime/r.CPETime)
	}
	tw.Flush()
	return rows
}

// sumRows times both summations at each size, once per process: the
// simulated times depend only on the lengths, so the kernel runs on one
// pair of all-zero vectors as long as the largest size, sliced per
// size, on a mesh that is closed afterwards.
var sumRows = sync.OnceValue(func() (rows []SumRow) {
	sizes := [...]int{1 << 10, 1 << 14, 1 << 18, 1 << 22}
	cg := sw26010.NewCoreGroup(nil)
	defer cg.Close()
	acc := make([]float32, sizes[len(sizes)-1])
	addend := make([]float32, len(acc))
	for _, n := range sizes {
		cpe := swdnn.SumRun(cg, acc[:n], addend[:n])
		rows = append(rows, SumRow{Elems: n, MPETime: swdnn.MPESumTime(cg.Model, n), CPETime: cpe})
	}
	return rows
})

// MappingRow is one cell of the mapping sensitivity sweep.
type MappingRow struct {
	Model    string
	SubBatch int
	Nodes    int
	Adjacent float64 // iteration seconds
	Topo     float64
}

// MappingAblation sweeps the adjacent vs round-robin mapping effect on
// full training iterations (the end-to-end view of Fig. 7's result).
func MappingAblation(w io.Writer) []MappingRow {
	var rows []MappingRow
	section(w, "Ablation: rank mapping effect on iteration time")
	tw := newTab(w)
	fmt.Fprintln(tw, "model\tB\tnodes\tadjacent\tround-robin\tspeedup")
	for _, wl := range []struct {
		model string
		b     int
	}{{"alexnet-bn", 256}, {"resnet50", 32}} {
		for _, p := range []int{512, 1024} {
			adj, err := train.Iteration(train.ScalingConfig{
				Model: wl.model, SubBatch: wl.b, Nodes: p, Adjacent: true})
			if err != nil {
				panic(err)
			}
			rr, err := train.Iteration(train.ScalingConfig{
				Model: wl.model, SubBatch: wl.b, Nodes: p})
			if err != nil {
				panic(err)
			}
			r := MappingRow{Model: wl.model, SubBatch: wl.b, Nodes: p,
				Adjacent: adj.Total(), Topo: rr.Total()}
			rows = append(rows, r)
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%.2fx\n",
				wl.model, wl.b, p, fmtTime(r.Adjacent), fmtTime(r.Topo), r.Adjacent/r.Topo)
		}
	}
	tw.Flush()
	return rows
}

// BatchRow is one point of the batch-size throughput sweep.
type BatchRow struct {
	Model     string
	SubBatch  int
	ImgPerSec float64
	CommFrac  float64 // at 1024 nodes
}

// BatchSweep explores the large-batch argument of the paper's
// conclusion (ref [12]): bigger per-node batches raise single-node
// throughput (better kernel efficiency) and shrink the communication
// share at scale, which is what lets TaihuLight "benefit from new
// training algorithm with larger batch-size" such as LARS.
func BatchSweep(w io.Writer) []BatchRow {
	type cell struct {
		Model    string
		SubBatch int
	}
	var cells []cell
	for _, model := range []string{"alexnet-bn", "resnet50"} {
		for _, b := range []int{16, 32, 64, 128, 256} {
			cells = append(cells, cell{model, b})
		}
	}
	rows := make([]BatchRow, len(cells))
	parallelFor(len(cells), func(i int) {
		c := cells[i]
		one, err := train.Iteration(train.ScalingConfig{Model: c.Model, SubBatch: c.SubBatch, Nodes: 1})
		if err != nil {
			panic(err)
		}
		big, err := train.Iteration(train.ScalingConfig{Model: c.Model, SubBatch: c.SubBatch, Nodes: 1024})
		if err != nil {
			panic(err)
		}
		rows[i] = BatchRow{Model: c.Model, SubBatch: c.SubBatch,
			ImgPerSec: float64(c.SubBatch) / one.Total(), CommFrac: big.CommFraction()}
	})
	section(w, "Sweep: per-node batch vs throughput and 1024-node comm share")
	tw := newTab(w)
	fmt.Fprintln(tw, "model\tsub-batch\timg/s (1 node)\tcomm %% (1024 nodes)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.1f\n", r.Model, r.SubBatch, r.ImgPerSec, r.CommFrac*100)
	}
	tw.Flush()
	return rows
}
