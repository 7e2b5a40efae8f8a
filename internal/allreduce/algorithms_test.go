package allreduce

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// runAllreduce executes an algorithm over p nodes with random inputs
// and checks every node ends with the true sum.
func runAllreduce(t *testing.T, alg Algorithm, name string, p, length int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(p*1000 + length)))
	inputs := make([][]float32, p)
	expect := make([]float32, length)
	for r := 0; r < p; r++ {
		inputs[r] = make([]float32, length)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.NormFloat64())
		}
	}
	// Sum in the deterministic order the algorithms do not guarantee —
	// compare with tolerance.
	for i := 0; i < length; i++ {
		var s float64
		for r := 0; r < p; r++ {
			s += float64(inputs[r][i])
		}
		expect[i] = float32(s)
	}

	net := topology.Sunway()
	cl := simnet.NewCluster(net, topology.AdjacentMapping{Q: net.SupernodeSize}, p)
	var mu sync.Mutex
	results := make([][]float32, p)
	res := cl.Run(func(n *simnet.Node) {
		out := alg(n, inputs[n.Rank])
		mu.Lock()
		results[n.Rank] = out
		mu.Unlock()
	})
	for r := 0; r < p; r++ {
		if len(results[r]) != length {
			t.Fatalf("%s p=%d len=%d: rank %d returned %d values", name, p, length, r, len(results[r]))
		}
		for i := range results[r] {
			if d := math.Abs(float64(results[r][i] - expect[i])); d > 1e-3*float64(p) {
				t.Fatalf("%s p=%d len=%d: rank %d elem %d: got %g want %g",
					name, p, length, r, i, results[r][i], expect[i])
			}
		}
	}
	if res.Time <= 0 && p > 1 {
		t.Fatalf("%s p=%d: non-positive makespan", name, p)
	}
	return res.Time
}

func TestAllreduceCorrectness(t *testing.T) {
	algs := map[string]Algorithm{
		NameRing:     Ring,
		NameBinomial: BinomialTree,
		NameRHD:      RecursiveHalvingDoubling,
	}
	for name, alg := range algs {
		for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 32} {
			for _, length := range []int{1, 5, 64, 1000} {
				runAllreduce(t, alg, name, p, length)
			}
		}
	}
}

// TestAllreduceRaggedChunks pins the ring and RHD on non-power-of-two
// p with vector lengths that do not divide by p: uneven ring chunk
// bounds (including empty chunks when len < p), RHD fold ranks plus
// the pad-to-multiple-of-pow2 working vector, and the degenerate
// length-0 collective.
func TestAllreduceRaggedChunks(t *testing.T) {
	algs := map[string]Algorithm{NameRing: Ring, NameRHD: RecursiveHalvingDoubling}
	cases := []struct{ p, length int }{
		{3, 7},     // len % p = 1
		{5, 12},    // len % p = 2, p non-power-of-two
		{6, 17},    // composite non-power-of-two
		{7, 3},     // len < p: some ring chunks are empty
		{12, 5},    // len < p, composite
		{13, 1},    // single element over a prime rank count
		{9, 100},   // larger vector, 100 % 9 = 1
		{10, 1023}, // 1023 % 10 = 3, crosses the RHD pad boundary
	}
	for name, alg := range algs {
		for _, c := range cases {
			runAllreduce(t, alg, name, c.p, c.length)
		}
	}
}

func TestAllreduceZeroLength(t *testing.T) {
	// A zero-length gradient (a net with no learnable parameters in a
	// bucket) must still complete the handshake on every algorithm.
	for name, alg := range map[string]Algorithm{
		NameRing: Ring, NameBinomial: BinomialTree, NameRHD: RecursiveHalvingDoubling,
	} {
		for _, p := range []int{2, 3, 5, 8} {
			runAllreduce(t, alg, name, p, 0)
		}
	}
}

func TestAllreduceInputNotModified(t *testing.T) {
	p, length := 8, 100
	inputs := make([][]float32, p)
	copies := make([][]float32, p)
	for r := 0; r < p; r++ {
		inputs[r] = make([]float32, length)
		for i := range inputs[r] {
			inputs[r][i] = float32(r*length + i)
		}
		copies[r] = append([]float32(nil), inputs[r]...)
	}
	net := topology.Sunway()
	cl := simnet.NewCluster(net, topology.AdjacentMapping{Q: net.SupernodeSize}, p)
	cl.Run(func(n *simnet.Node) {
		RecursiveHalvingDoubling(n, inputs[n.Rank])
	})
	for r := 0; r < p; r++ {
		for i := range inputs[r] {
			if inputs[r][i] != copies[r][i] {
				t.Fatalf("rank %d input modified at %d", r, i)
			}
		}
	}
}

func TestRoundRobinMappingFasterAtScale(t *testing.T) {
	// The paper's improvement: with p >> q, round-robin numbering must
	// make RHD faster than adjacent numbering. Use a small supernode
	// (q=4) so the effect appears at testable scale.
	net := topology.Sunway()
	net.SupernodeSize = 4
	p, length := 32, 1<<14

	time := func(m topology.Mapping) float64 {
		cl := simnet.NewCluster(net, m, p)
		cl.BytesPerElem = 4096 // virtual large gradient
		inputs := make([][]float32, p)
		for r := range inputs {
			inputs[r] = make([]float32, length)
		}
		return cl.Run(func(n *simnet.Node) {
			RecursiveHalvingDoubling(n, inputs[n.Rank])
		}).Time
	}
	adj := time(topology.AdjacentMapping{Q: 4})
	rr := time(topology.RoundRobinMapping{Q: 4})
	if rr >= adj {
		t.Fatalf("round-robin (%.6gs) should beat adjacent (%.6gs) at p=%d q=4", rr, adj, p)
	}
}

// TestRingSegmentBitIdenticalToFullRing is the primitive behind the
// chunk-aligned ring overlap: splitting the vector at chunk bounds and
// reducing each segment where it lies (Schedule.Run) must reproduce the
// one-shot Ring bit for bit — including ragged lengths (len%p != 0),
// len < p (empty chunks) and single-chunk segments.
func TestRingSegmentBitIdenticalToFullRing(t *testing.T) {
	net := topology.Sunway()
	m := topology.AdjacentMapping{Q: net.SupernodeSize}
	for _, p := range []int{2, 3, 4, 5, 8} {
		for _, length := range []int{1, 3, 7, 64, 1001} {
			inputs := randInputs(p, length)
			full, _ := gather(net, m, p, inputs, Ring)

			// Cut the vector into segments at chunk bounds: one segment
			// per run of ~2 chunks, exercising single- and multi-chunk
			// segments plus the empty-chunk prefix when length < p.
			bounds := ChunkBounds(length, p)
			var cuts []int
			for c := 0; c <= p; c += 2 {
				cuts = append(cuts, bounds[c])
			}
			if cuts[len(cuts)-1] != length {
				cuts = append(cuts, length)
			}
			got := padded(inputs)
			for s := 0; s+1 < len(cuts); s++ {
				lo, hi := cuts[s], cuts[s+1]
				if lo == hi {
					continue
				}
				simnet.NewCluster(net, m, p).Run(func(n *simnet.Node) {
					schedRing.Run(n, got[n.Rank][lo:hi], lo, length, nil)
				})
			}
			for r := 0; r < p; r++ {
				for i := range full[r] {
					if got[r][i] != full[r][i] {
						t.Fatalf("p=%d len=%d rank %d elem %d: segment result %g != full ring %g (must be bit-identical)",
							p, length, r, i, got[r][i], full[r][i])
					}
				}
			}
		}
	}
}

// TestRingSegmentRejectsUnalignedBounds: a segment that does not start
// on a chunk boundary cannot reproduce the full ring's association
// order and must be refused loudly.
func TestRingSegmentRejectsUnalignedBounds(t *testing.T) {
	net := topology.Sunway()
	cl := simnet.NewCluster(net, topology.AdjacentMapping{Q: net.SupernodeSize}, 4)
	data := make([]float32, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned segment bound was accepted")
		}
	}()
	cl.Run(func(n *simnet.Node) {
		schedRing.Run(n, data[1:3], 1, 100, nil) // 1 is not on ChunkBounds(100, 4)
	})
}

// TestLandChecksPayloadLength: a payload lands in exactly recv.len()
// elements, copied or reduced, and one of any other length is refused
// with the round named, not truncated or landed short.
func TestLandChecksPayloadLength(t *testing.T) {
	for _, reduce := range []bool{false, true} {
		data := []float32{1, 1, 1, 1, 1, 1, 1, 1}
		f := newFrame(data, data, len(data), nil)
		rd := round{sendTo: -1, recvFrom: 3, recv: span{result, 2, 6}, reduce: reduce}
		if got := f.land(&rd, []float32{2, 3, 4, 5}); got != reduce {
			t.Fatalf("reduce=%v: land reported a reduction %v", reduce, got)
		}
		want := []float32{1, 1, 2, 3, 4, 5, 1, 1}
		if reduce {
			want = []float32{1, 1, 3, 4, 5, 6, 1, 1}
		}
		for i := range want {
			if data[i] != want[i] {
				t.Fatalf("reduce=%v: landed %v, want %v", reduce, data, want)
			}
		}
		for _, n := range []int{3, 5} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				f.land(&rd, make([]float32, n))
				return ""
			}()
			if !strings.Contains(msg, fmt.Sprintf("received %d elements, want recv.len() = 4", n)) || !strings.Contains(msg, "recvFrom:3") {
				t.Errorf("reduce=%v: a %d-element payload for a 4-element span panicked with %q, want the length and the round", reduce, n, msg)
			}
		}
	}
}

// TestFreshReduceAddsToTheInput: a fresh reduce writes input + payload
// over whatever the result range held, and leaves the input alone.
func TestFreshReduceAddsToTheInput(t *testing.T) {
	in := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	res := []float32{9, 9, 9, 9, 9, 9, 9, 9}
	f := newFrame(in, res, len(res), nil)
	rd := round{sendTo: -1, recvFrom: 3, recv: span{result, 2, 6}, reduce: true, fresh: true}
	if !f.land(&rd, []float32{10, 20, 30, 40}) {
		t.Fatal("a fresh reduce was not reported as a reduction")
	}
	want := []float32{9, 9, 13, 24, 35, 46, 9, 9}
	for i := range want {
		if res[i] != want[i] || in[i] != float32(i+1) {
			t.Fatalf("result %v, input %v; want %v and the input unchanged", res, in, want)
		}
	}
}

// TestOneShotIgnoresStaleArena: a one-shot call reduces into arena
// memory that still holds the cluster's last run, and must never read
// it. A run over NaN inputs leaves NaN in every rank's arena; the next
// run, over small integers, must give their exact sum on every rank —
// a padded RHD core (n = 5) and a leader whose group of one never
// reduced its chunk in phase A (q = 1) included.
func TestOneShotIgnoresStaleArena(t *testing.T) {
	nan := float32(math.NaN())
	for _, q := range []int{1, 4} {
		for _, p := range []int{1, 3, 8, 24} {
			for _, n := range []int{0, 5, 64} {
				poison, inputs := make([][]float32, p), intInputs(p, n)
				for r := range poison {
					poison[r] = make([]float32, n)
					for i := range poison[r] {
						poison[r][i] = nan
					}
				}
				sum := make([]float32, n)
				for _, in := range inputs {
					for i, v := range in {
						sum[i] += v
					}
				}
				for s := range schedules {
					sched := Schedule(s)
					cl := simnet.NewCluster(sunwayQ(q), topology.RoundRobinMapping{Q: q}, p)
					cl.RunGather(func(nd *simnet.Node) []float32 { return sched.oneShot(nd, poison[nd.Rank], 0, n) })
					_, outs := cl.RunGather(func(nd *simnet.Node) []float32 { return sched.oneShot(nd, inputs[nd.Rank], 0, n) })
					for r, out := range outs {
						if len(out) != n {
							t.Fatalf("%s q=%d p=%d n=%d: rank %d returned %d elements", sched.Name(), q, p, n, r, len(out))
						}
						for i := range sum {
							if math.Float32bits(out[i]) != math.Float32bits(sum[i]) {
								t.Fatalf("%s q=%d p=%d n=%d: rank %d elem %d = %g after a NaN run, want %g",
									sched.Name(), q, p, n, r, i, out[i], sum[i])
							}
						}
					}
				}
			}
		}
	}
}
