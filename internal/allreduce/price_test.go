package allreduce

import (
	"flag"
	"fmt"
	"testing"

	"swcaffe/internal/des"
	"swcaffe/internal/detrand"
	"swcaffe/internal/topology"
)

var priceSeed = flag.Uint64("price-seed", 20261019, "base seed of TestPriceMatchesDES's generated cases")

const priceCases = 300

// TestPriceMatchesDES: Price walks the cursors on scalar clocks; the
// event backend runs them with payloads, matching messages by link.
// Over generated cases — p up to 70, powers of two or not, q up to 16,
// both mappings, any length, a segment on each schedule's partition
// (the whole vector a third of the time), a wire size per element that
// is not always a power of two, either reduction rate — every
// schedule's price must equal the DES run's Result: Time, every clock
// bit for bit, and the census. Replay a failure with -price-seed.
func TestPriceMatchesDES(t *testing.T) {
	for i := 0; i < priceCases; i++ {
		seed := *priceSeed + uint64(i)
		rng := detrand.New(seed)
		p, q := 1+rng.Intn(70), 1+rng.Intn(16)
		var m topology.Mapping = topology.AdjacentMapping{Q: q}
		if rng.Intn(2) == 1 {
			m = topology.RoundRobinMapping{Q: q}
		}
		total := rng.Intn(3 * p)
		if rng.Intn(2) == 0 {
			total = rng.Intn(40 * p)
		}
		bpe := float64(int(4) << rng.Intn(12))
		if rng.Intn(2) == 0 {
			bpe = 1e6 * rng.Float64()
		}
		cpe := rng.Intn(2) == 0
		net := sunwayQ(q)
		data := make([][]float32, p)
		for r := range data {
			data[r] = make([]float32, total, total+p) // flat RHD pads in place
		}
		for _, name := range Names() {
			sched, _ := ScheduleByName(name)
			chunks := 0
			switch sched {
			case schedRing:
				chunks = p
			case schedHierarchical:
				chunks = topology.MinGroupSize(m, p)
			}
			lo, hi := replaySegment(rng, total, chunks, p)
			label := fmt.Sprintf("seed %d (-price-seed %d): %s p=%d q=%d %s total=%d seg=[%d,%d) bytes/elem %v cpe %v",
				seed, *priceSeed, name, p, q, m.Name(), total, lo, hi, bpe, cpe)

			cl := des.NewCluster(net, m, p)
			cl.BytesPerElem, cl.ReduceOnCPE = bpe, cpe
			run := NewDESRun(p, total)
			want, _ := run.Gather(cl, Pool{}, func(r *des.Rank) {
				sched.RunDES(run, r, data[r.Rank][lo:hi], lo, total, nil, (*des.Rank).Finish)
			})

			fab := topology.NewFabric(net, m, p)
			fab.BytesPerElem, fab.ReduceOnCPE = bpe, cpe
			got := sched.Price(&fab, lo, hi-lo, total)
			if len(got.Clocks) != p {
				t.Fatalf("%s: %d clocks, want %d", label, len(got.Clocks), p)
			}
			if d := sameResult(got, want); d != "" {
				t.Fatalf("%s: %s", label, d)
			}
		}
	}
}

// TestPriceClocksBelongToTheCaller: each Price returns clocks of its
// own, which a later Price leaves alone.
func TestPriceClocksBelongToTheCaller(t *testing.T) {
	fab := topology.NewFabric(sunwayQ(4), topology.AdjacentMapping{Q: 4}, 8)
	first := schedRHD.Price(&fab, 0, 64, 64)
	keep := first.Clocks[0]
	second := schedRHD.Price(&fab, 0, 4096, 4096)
	if &first.Clocks[0] == &second.Clocks[0] || first.Clocks[0] != keep {
		t.Fatalf("a second Price reused or rewrote the first one's clocks")
	}
}

// TestPriceAllocations: Price allocates its state once a call — the
// ranks, their clocks, the ready stack and the wire slots, 4 objects
// measured for every schedule — whatever the vector's length or the
// schedule's round count: at a fixed p, 16 times the elements cost no
// more objects, nor do the ring's 2(p-1) steps a rank over RHD's
// 2 log p.
func TestPriceAllocations(t *testing.T) {
	const p, n = 64, 1000
	fab := topology.NewFabric(sunwayQ(8), topology.RoundRobinMapping{Q: 8}, p)
	for s := range schedules {
		sched := Schedule(s)
		small := testing.AllocsPerRun(20, func() { sched.Price(&fab, 0, n, n) })
		large := testing.AllocsPerRun(20, func() { sched.Price(&fab, 0, 16*n, 16*n) })
		if large > small || small > 4 {
			t.Errorf("%s p=%d: %v allocations at n=%d, %v at n=%d; want at most 4 and no growth",
				sched.Name(), p, small, n, large, 16*n)
		}
	}
}

// BenchmarkPrice prices each schedule at the scale of the DES sweep
// (p = 1024, a 33 043-element gradient, round-robin q = 256) next to
// the DES run of the same call that it replaces.
func BenchmarkPrice(b *testing.B) {
	const p, n = 1024, 33043
	net, m := sunwayQ(256), topology.RoundRobinMapping{Q: 256}
	for s := range schedules {
		sched := Schedule(s)
		b.Run(sched.Name()+"/price", func(b *testing.B) {
			fab := topology.NewFabric(net, m, p)
			for range b.N {
				sched.Price(&fab, 0, n, n)
			}
		})
		b.Run(sched.Name()+"/des", func(b *testing.B) {
			data := make([][]float32, p)
			for r := range data {
				data[r] = make([]float32, n, n+p)
			}
			cl, run := des.NewCluster(net, m, p), NewDESRun(p, n)
			for range b.N {
				run.Gather(cl, Pool{}, func(r *des.Rank) {
					sched.RunDES(run, r, data[r.Rank], 0, n, nil, (*des.Rank).Finish)
				})
			}
		})
	}
}
