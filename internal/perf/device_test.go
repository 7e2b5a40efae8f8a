package perf

import (
	"testing"

	"swcaffe/internal/swdnn"
)

func allDevices() []Device {
	return []Device{NewSWCG(), NewK40m(), NewXeonCPU(), NewKNL()}
}

func TestDevicesPricePrimitives(t *testing.T) {
	conv := swdnn.ConvShape{B: 16, Ni: 64, Ri: 56, Ci: 56, No: 128, K: 3, S: 1, P: 1}
	pool := swdnn.PoolShape{B: 16, C: 64, Ri: 56, Ci: 56, K: 2, S: 2}
	for _, dev := range allDevices() {
		if dev.Name() == "" {
			t.Fatal("unnamed device")
		}
		checks := []struct {
			what string
			v    float64
		}{
			{"conv", dev.Conv(conv, swdnn.Forward)},
			{"conv-bwdW", dev.Conv(conv, swdnn.BackwardWeight)},
			{"conv-bwdI", dev.Conv(conv, swdnn.BackwardInput)},
			{"ip", dev.InnerProduct(16, 4096, 1000, swdnn.Forward)},
			{"pool", dev.Pool(pool)},
			{"elt", dev.Elementwise(1<<20, 1, 1, 1)},
			{"bn", dev.BatchNorm(1 << 20)},
			{"softmax", dev.Softmax(64, 1000)},
			{"input", dev.InputOverhead(64)},
		}
		for _, c := range checks {
			if c.v <= 0 {
				t.Errorf("%s: %s time %g must be positive", dev.Name(), c.what, c.v)
			}
		}
	}
}

func TestGPUSmallConvPenalty(t *testing.T) {
	gpu := NewK40m()
	// Same flops, one as a 1x1 conv, one as an equivalent-flop 3x3.
	oneByOne := swdnn.ConvShape{B: 32, Ni: 256, Ri: 14, Ci: 14, No: 576, K: 1, S: 1, P: 0}
	threeByThree := swdnn.ConvShape{B: 32, Ni: 256, Ri: 14, Ci: 14, No: 64, K: 3, S: 1, P: 1}
	if oneByOne.Flops() != threeByThree.Flops() {
		t.Fatalf("test shapes not flop-matched: %g vs %g", oneByOne.Flops(), threeByThree.Flops())
	}
	if gpu.Conv(oneByOne, swdnn.Forward) <= gpu.Conv(threeByThree, swdnn.Forward) {
		t.Fatal("1x1 convolutions must be derated on the K40m roofline")
	}
}

func TestHostInputCostOrdering(t *testing.T) {
	// Sec. VI-B: the GPU pays a heavy host data path that SW26010's
	// direct DMA avoids.
	sw, gpu := NewSWCG(), NewK40m()
	if sw.InputOverhead(256) >= gpu.InputOverhead(256) {
		t.Fatal("SW26010 input path must be cheaper than the GPU's")
	}
	// The GPU's AlexNet-batch input cost lands in the "over 40% of a
	// ~3.2s iteration" regime the paper reports.
	if got := gpu.InputOverhead(256); got < 1.0 || got > 2.4 {
		t.Fatalf("K40m host path for 256 images = %gs, want 1-2.4s", got)
	}
}

func TestSWCGDelegatesToPlans(t *testing.T) {
	sw := NewSWCG()
	s := swdnn.ConvShape{B: 128, Ni: 512, Ri: 14, Ci: 14, No: 512, K: 3, S: 1, P: 1}
	_, _, best := swdnn.ConvPlans(sw.HW, s, swdnn.Forward)
	if got := sw.Conv(s, swdnn.Forward); got != best.Time {
		t.Fatalf("device conv time %g != best plan %g", got, best.Time)
	}
}

func TestTable1Specs(t *testing.T) {
	specs := Table1Specs()
	if len(specs) != 3 || specs[0].Name != "SW26010" {
		t.Fatalf("bad specs: %+v", specs)
	}
	// K40m single vs double gap (the GPU's 3:1 SP:DP ratio).
	if specs[1].FloatTFlops/specs[1].DoubleTFlops < 2.5 {
		t.Fatal("K40m SP:DP ratio wrong")
	}
	// SW26010's signature: identical SP and DP peaks.
	if specs[0].FloatTFlops != specs[0].DoubleTFlops {
		t.Fatal("SW26010 SP must equal DP")
	}
}

func TestRooflineMemoryBound(t *testing.T) {
	gpu := NewK40m()
	// A zero-flop streaming op is memory-bound: time scales with bytes.
	t1 := gpu.Elementwise(1<<20, 1, 1, 0.001)
	t2 := gpu.Elementwise(4<<20, 1, 1, 0.001)
	if t2 < 3*t1 {
		t.Fatalf("memory-bound elementwise should scale with size: %g -> %g", t1, t2)
	}
}
