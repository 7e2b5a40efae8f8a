// Command swmodel inspects the model zoo: layer-by-layer shapes,
// parameter counts, flops and per-device time estimates.
//
//	swmodel -model vgg16 -batch 32 -device sw26010
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"swcaffe/internal/models"
	"swcaffe/internal/perf"
)

func main() {
	model := flag.String("model", "alexnet-bn", "one of: alexnet-bn alexnet-lrn vgg16 vgg19 resnet50 googlenet")
	batch := flag.Int("batch", 32, "mini-batch size")
	device := flag.String("device", "sw26010", "sw26010 | k40m | cpu | knl")
	verbose := flag.Bool("v", false, "print every layer (default: conv/fc/pool only)")
	flag.Parse()

	if *batch < 1 {
		fmt.Fprintln(os.Stderr, "swmodel: -batch must be at least 1")
		os.Exit(2)
	}
	build, ok := models.ByName(*model)
	if !ok {
		fmt.Fprintf(os.Stderr, "swmodel: unknown model %q; have %v\n", *model, models.Names())
		os.Exit(2)
	}
	var dev perf.Device
	switch *device {
	case "sw26010":
		dev = perf.NewSWCG()
	case "k40m":
		dev = perf.NewK40m()
	case "cpu":
		dev = perf.NewXeonCPU()
	case "knl":
		dev = perf.NewKNL()
	default:
		fmt.Fprintf(os.Stderr, "swmodel: unknown device %q\n", *device)
		os.Exit(2)
	}

	spec := build(*batch)
	perLayer, total := spec.Cost(dev)

	fmt.Printf("%s @ batch %d on %s\n", spec.Name, spec.Batch, dev.Name())
	fmt.Printf("  parameters: %d (%.1f MB all-reduce payload)\n", spec.ParamCount(), float64(spec.ParamBytes())/1e6)
	fmt.Printf("  forward flops: %.2f G (%.2f G/image)\n", spec.Flops()/1e9, spec.Flops()/float64(*batch)/1e9)
	fmt.Printf("  iteration: fwd %.4gs + bwd %.4gs = %.4gs (%.1f img/s)\n\n",
		total.Forward, total.Backward, total.Total(), float64(*batch)/total.Total())

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tkind\toutput\tparams\tfwd\tbwd\tshare")
	for i := range spec.Layers {
		l := &spec.Layers[i]
		interesting := l.Kind == models.KConv || l.Kind == models.KInnerProduct || l.Kind == models.KPool
		if !*verbose && !interesting {
			continue
		}
		c := perLayer[i]
		fmt.Fprintf(tw, "%s\t%s\t%v\t%d\t%.3gms\t%.3gms\t%.1f%%\n",
			l.Name, l.Kind, l.OutShape, l.Params(),
			c.Forward*1e3, c.Backward*1e3, 100*c.Total()/total.Total())
	}
	tw.Flush()
}
