package allreduce

import (
	"math"
	"testing"

	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

func TestImprovedBeatsOriginalBeyondSupernode(t *testing.T) {
	net := topology.Sunway()
	n := 232.6e6 // AlexNet gradient
	for _, p := range []int{512, 1024, 4096} {
		orig := OriginalRHDCost(net, p, n, true).Total()
		impr := ImprovedRHDCost(net, p, n, true).Total()
		if impr >= orig {
			t.Errorf("p=%d: improved (%g) should beat original (%g)", p, impr, orig)
		}
	}
	// Within one supernode the two coincide.
	for _, p := range []int{2, 64, 256} {
		orig := OriginalRHDCost(net, p, n, true).Total()
		impr := ImprovedRHDCost(net, p, n, true).Total()
		if math.Abs(orig-impr) > 1e-12 {
			t.Errorf("p=%d <= q: costs should coincide (%g vs %g)", p, orig, impr)
		}
	}
}

func TestBeta2CoefficientReduction(t *testing.T) {
	// The paper's headline: the β2 coefficient drops from (p−q) to
	// (p/q − 1). Check the Inter components directly.
	net := topology.Sunway()
	p, q := 1024, float64(net.SupernodeSize)
	n := 1e8
	orig := OriginalRHDCost(net, p, n, true)
	impr := ImprovedRHDCost(net, p, n, true)
	wantOrig := 2 * (float64(p) - q) * net.Beta2 * n / float64(p)
	wantImpr := 2 * (float64(p)/q - 1) * net.Beta2 * n / float64(p)
	if math.Abs(orig.Inter-wantOrig)/wantOrig > 1e-9 {
		t.Fatalf("original Inter %g, want %g", orig.Inter, wantOrig)
	}
	if math.Abs(impr.Inter-wantImpr)/wantImpr > 1e-9 {
		t.Fatalf("improved Inter %g, want %g", impr.Inter, wantImpr)
	}
	if ratio := orig.Inter / impr.Inter; ratio < 250 {
		t.Fatalf("Inter reduction ratio %g, want (p-q)/(p/q-1) = %g", ratio, (float64(p)-q)/(float64(p)/q-1))
	}
}

func TestAnalyticMatchesSimulation(t *testing.T) {
	// The closed forms (Eqns. 2-6) must match the message-level
	// simulator for power-of-two clusters.
	for _, tc := range []struct {
		p, q   int
		nBytes float64
	}{
		{8, 4, 1e6}, {16, 4, 1e7}, {32, 8, 1e6}, {64, 16, 5e7},
	} {
		net := topology.Sunway()
		net.SupernodeSize = tc.q
		for _, improved := range []bool{false, true} {
			var m topology.Mapping = topology.AdjacentMapping{Q: tc.q}
			analytic := OriginalRHDCost(net, tc.p, tc.nBytes, true).Total()
			if improved {
				m = topology.RoundRobinMapping{Q: tc.q}
				analytic = ImprovedRHDCost(net, tc.p, tc.nBytes, true).Total()
			}
			cl := simnet.NewCluster(net, m, tc.p)
			cl.ReduceOnCPE = true
			length := 1 << 12
			cl.BytesPerElem = tc.nBytes / float64(length)
			inputs := make([][]float32, tc.p)
			for r := range inputs {
				inputs[r] = make([]float32, length)
			}
			sim := cl.Run(func(n *simnet.Node) {
				RecursiveHalvingDoubling(n, inputs[n.Rank])
			}).Time
			if rel := math.Abs(sim-analytic) / analytic; rel > 0.12 {
				t.Errorf("p=%d q=%d n=%g improved=%v: sim %g vs analytic %g (%.1f%% off)",
					tc.p, tc.q, tc.nBytes, improved, sim, analytic, rel*100)
			}
		}
	}
}

func TestRingVsRHDCrossover(t *testing.T) {
	net := topology.Sunway()
	// Small messages at scale: ring's 2(p-1)α latency loses badly
	// against RHD's 2 log p α (the paper's reason to reject rings).
	small := 1700.0 // VGG conv1 gradient
	ring := RingCost(net, 1024, small, true).Total()
	rhd := ImprovedRHDCost(net, 1024, small, true).Total()
	if ring < 10*rhd {
		t.Fatalf("ring should lose on small messages at p=1024: ring %g vs rhd %g", ring, rhd)
	}
}

func TestBinomialLosesOnBandwidth(t *testing.T) {
	net := topology.Sunway()
	// Full-vector rounds: binomial should lose to RHD on large
	// gradients at any scale.
	for _, p := range []int{16, 256, 1024} {
		bin := BinomialCost(net, p, 232.6e6, true).Total()
		rhd := ImprovedRHDCost(net, p, 232.6e6, true).Total()
		if bin <= rhd {
			t.Errorf("p=%d: binomial (%g) should lose to RHD (%g) on 232 MB", p, bin, rhd)
		}
	}
}

func TestCPEReductionBeatsMPE(t *testing.T) {
	net := topology.Sunway()
	mpe := ImprovedRHDCost(net, 1024, 232.6e6, false).Total()
	cpe := ImprovedRHDCost(net, 1024, 232.6e6, true).Total()
	if cpe >= mpe {
		t.Fatalf("CPE-cluster summation (%g) must beat MPE (%g)", cpe, mpe)
	}
}

func TestPackedBeatsPerLayer(t *testing.T) {
	net := topology.Sunway()
	// ResNet-50-like size distribution: many small blobs.
	var sizes []int64
	for i := 0; i < 53; i++ {
		sizes = append(sizes, int64(1<<10+i*40<<10))
	}
	sizes = append(sizes, 8<<20)
	for _, p := range []int{64, 1024} {
		per := PerLayerAllreduceCost(net, p, sizes, true)
		packed := PackedAllreduceCost(net, p, sizes, true)
		if packed >= per {
			t.Errorf("p=%d: packed (%g) should beat per-layer (%g)", p, packed, per)
		}
	}
}

func TestCostMonotonicity(t *testing.T) {
	net := topology.Sunway()
	for name, cost := range map[string]CostFunc{
		"rhd": ImprovedRHDCost, "hierarchical": HierarchicalCost,
		"ring": RingCost, "binomial": BinomialCost,
	} {
		prev := 0.0
		for _, n := range []float64{1e3, 1e5, 1e7, 1e9} {
			c := cost(net, 1024, n, true).Total()
			if c <= prev {
				t.Fatalf("%s: cost not increasing with message size at %g", name, n)
			}
			prev = c
		}
	}
}

// TestHierarchicalCostStructure pins the closed form's shape: no β2
// exposure within one supernode (p ≤ q, phase B vanishes), the β2
// coefficient shrinking to 2(S−1)/S of an n/g chunk beyond it, and —
// the acceptance bar of the hierarchical strategy — a smaller total
// than adjacent-mapped flat RHD (Eqn. 4) once supernodes are crossed
// at TaihuLight scale.
func TestHierarchicalCostStructure(t *testing.T) {
	net := topology.Sunway()
	n := 232.6e6
	for _, p := range []int{2, 64, 256} { // p <= q: one supernode
		c := HierarchicalCost(net, p, n, true)
		if c.Inter != 0 {
			t.Fatalf("p=%d <= q: hierarchical has β2 exposure %g", p, c.Inter)
		}
		// Never strictly better than flat RHD here: its (g−1) α factor
		// loses for p > 2 and exactly ties at p = 2, so the plan
		// selector's flat-first tie-break keeps the flat algorithm.
		if flat := ImprovedRHDCost(net, p, n, true).Total(); c.Total() < flat {
			t.Fatalf("p=%d <= q: hierarchical (%g) beats flat RHD (%g)", p, c.Total(), flat)
		}
	}
	for _, p := range []int{512, 1024, 4096} { // p > q: hierarchy pays off
		c := HierarchicalCost(net, p, n, true)
		S := float64((p + net.SupernodeSize - 1) / net.SupernodeSize)
		g := float64(p) / S
		wantInter := 2 * (S - 1) / S * (n / g) * net.Beta2
		if math.Abs(c.Inter-wantInter)/wantInter > 1e-9 {
			t.Fatalf("p=%d: Inter %g, want %g", p, c.Inter, wantInter)
		}
		if flat := OriginalRHDCost(net, p, n, true).Total(); c.Total() >= flat {
			t.Fatalf("p=%d: hierarchical (%g) must beat adjacent-mapped flat RHD (%g)", p, c.Total(), flat)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		if _, err := ByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := CostByName(name); err != nil {
			t.Errorf("cost %s: %v", name, err)
		}
	}
	for alias, want := range map[string]string{"hier": NameHierarchical, "rhd": NameRHD, "ring": NameRing} {
		if got := Canonical(alias); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", alias, got, want)
		}
		if _, err := ByName(alias); err != nil {
			t.Errorf("alias %s: %v", alias, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("expected error for unknown algorithm")
	}
}
