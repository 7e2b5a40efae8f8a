package experiments

import (
	"fmt"
	"io"

	"swcaffe/internal/core"
	"swcaffe/internal/models"
	"swcaffe/internal/perf"
	"swcaffe/internal/sw26010"
	"swcaffe/internal/train"
)

// LayerTiming is one bar pair of Figs. 8/9: the forward and backward
// time of one layer on the two devices.
type LayerTiming struct {
	Layer string
	Kind  string
	GPU   core.LayerCost
	SW    core.LayerCost
}

// perLayerComparison evaluates a model's per-layer costs on the K40m
// roofline and on one SW26010 core group handling batch/4 (the
// per-node comparison of Figs. 8/9 gives the GPU the whole batch and
// the SW26010 node its 4 CGs; per-layer bars are shown per CG with the
// GPU at the same per-CG share for comparability).
func perLayerComparison(w io.Writer, title, model string, batch int) []LayerTiming {
	build, ok := models.ByName(model)
	if !ok {
		panic("experiments: unknown model " + model)
	}
	perCG := batch / sw26010.CoreGroups
	spec := build(perCG)
	gpu := perf.NewK40m()
	sw := perf.NewSWCG()

	// Per-layer costs are independent planner queries: fan them out,
	// then render in layer order.
	out := make([]LayerTiming, len(spec.Layers))
	parallelFor(len(spec.Layers), func(i int) {
		l := &spec.Layers[i]
		out[i] = LayerTiming{Layer: l.Name, Kind: l.Kind.String(), GPU: l.Cost(gpu), SW: l.Cost(sw)}
	})

	section(w, title)
	tw := newTab(w)
	fmt.Fprintln(tw, "layer\tGPU fwd\tSW fwd\tGPU bwd\tSW bwd")
	for i := range spec.Layers {
		l := &spec.Layers[i]
		lt := out[i]
		if l.Kind == core.KSoftmaxLoss {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", l.Name,
			fmtTime(lt.GPU.Forward), fmtTime(lt.SW.Forward),
			fmtTime(lt.GPU.Backward), fmtTime(lt.SW.Backward))
	}
	tw.Flush()
	return out
}

// Figure8 prints the AlexNet per-layer forward/backward comparison
// (paper Fig. 8, batch 256).
func Figure8(w io.Writer) []LayerTiming {
	return perLayerComparison(w,
		"Figure 8: per-layer time, AlexNet (batch 256), GPU K40m vs SW26010 (per CG share)",
		"alexnet-bn", 256)
}

// Figure9 prints the VGG-16 per-layer comparison (paper Fig. 9,
// batch 64).
func Figure9(w io.Writer) []LayerTiming {
	return perLayerComparison(w,
		"Figure 9: per-layer time, VGG-16 (batch 64), GPU K40m vs SW26010 (per CG share)",
		"vgg16", 64)
}

// Table3Row is one network of paper Table III.
type Table3Row struct {
	Network string
	Batch   int
	CPU     float64 // img/s
	GPU     float64
	SW      float64
}

// Table3Workloads returns the five (network, batch) pairs of
// Table III.
func Table3Workloads() []struct {
	Model string
	Batch int
} {
	return []struct {
		Model string
		Batch int
	}{
		{"alexnet-bn", 256},
		{"vgg16", 64},
		{"vgg19", 64},
		{"resnet50", 32},
		{"googlenet", 128},
	}
}

// Table3 evaluates whole-network training throughput (img/s) on the
// CPU and GPU comparators and on one SW26010 node (4 CGs + Algorithm 1
// gradient averaging), reproducing paper Table III.
func Table3(w io.Writer) []Table3Row {
	cpu, gpu := perf.NewXeonCPU(), perf.NewK40m()
	workloads := Table3Workloads()
	rows := make([]Table3Row, len(workloads))
	parallelFor(len(workloads), func(i int) {
		wl := workloads[i]
		build, _ := models.ByName(wl.Model)
		full := build(wl.Batch)
		tCPU := full.IterationTime(cpu)
		tGPU := full.IterationTime(gpu)
		bd, err := train.Iteration(train.ScalingConfig{Model: wl.Model, SubBatch: wl.Batch, Nodes: 1})
		if err != nil {
			panic(err)
		}
		rows[i] = Table3Row{
			Network: wl.Model, Batch: wl.Batch,
			CPU: float64(wl.Batch) / tCPU,
			GPU: float64(wl.Batch) / tGPU,
			SW:  float64(wl.Batch) / bd.Total(),
		}
	})
	section(w, "Table III: training throughput (img/s) per processor")
	tw := newTab(w)
	fmt.Fprintln(tw, "network\tbatch\tCPU\tNV K40m\tSW\tSW/NV\tSW/CPU")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%s\n",
			r.Network, r.Batch, fixed(r.CPU, 2), fixed(r.GPU, 2), fixed(r.SW, 2), fixed(r.SW/r.GPU, 2), fixed(r.SW/r.CPU, 2))
	}
	tw.Flush()
	return rows
}
