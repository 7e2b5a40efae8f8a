package allreduce

import (
	"sync"
	"testing"

	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// sunwayQ returns the TaihuLight parameter set with a test-sized
// supernode, so hierarchy effects appear at simulable rank counts.
func sunwayQ(q int) *topology.Network {
	net := topology.Sunway()
	net.SupernodeSize = q
	return net
}

// gather runs alg on a fresh cluster and returns every rank's output.
func gather(net *topology.Network, m topology.Mapping, p int, inputs [][]float32, alg Algorithm) ([][]float32, topology.Result) {
	cl := simnet.NewCluster(net, m, p)
	out := make([][]float32, p)
	var mu sync.Mutex
	res := cl.Run(func(n *simnet.Node) {
		o := alg(n, inputs[n.Rank])
		mu.Lock()
		out[n.Rank] = o
		mu.Unlock()
	})
	return out, res
}

// padded copies inputs into vectors with the spare capacity an in-place
// call may pad into (flat RHD: fewer than p elements), so Schedule.Run
// and RunDES can reduce them where they lie and leave inputs alone.
func padded(inputs [][]float32) [][]float32 {
	cp := make([][]float32, len(inputs))
	for r, in := range inputs {
		cp[r] = append(make([]float32, 0, len(in)+len(inputs)), in...)
	}
	return cp
}

// intInputs builds integer-valued float32 vectors. Integer sums below
// 2^24 are exact in float32 regardless of association order, so two
// algorithms with different reduction trees must agree hex-exactly —
// the equality the ragged-shape tests pin.
func intInputs(p, length int) [][]float32 {
	inputs := make([][]float32, p)
	for r := range inputs {
		inputs[r] = make([]float32, length)
		for i := range inputs[r] {
			inputs[r][i] = float32((r*31+i)%257 - 128)
		}
	}
	return inputs
}

// TestHierarchicalHexExactVsRing: across ragged hierarchy shapes — p
// not a multiple of q, p < q (degenerates to a single supernode),
// q = 1 (degenerates to flat RHD), exactly one supernode — and under
// both mappings, the hierarchical all-reduce must agree with the flat
// Ring hex-exactly on integer payloads.
func TestHierarchicalHexExactVsRing(t *testing.T) {
	shapes := []struct{ p, q int }{
		{8, 4},  // uniform: 2 supernodes of 4
		{10, 4}, // p % q != 0: groups of 4,4,2 (adjacent)
		{7, 3},  // ragged prime p
		{3, 8},  // p < q: single supernode
		{5, 1},  // q = 1: every rank its own supernode
		{4, 4},  // exactly one full supernode
		{9, 2},  // odd leader-group count
	}
	for _, sh := range shapes {
		net := sunwayQ(sh.q)
		for _, m := range []topology.Mapping{
			topology.AdjacentMapping{Q: sh.q},
			topology.RoundRobinMapping{Q: sh.q},
		} {
			for _, length := range []int{1, 7, 64, 1000, sh.p - 1} {
				if length < 0 {
					continue
				}
				inputs := intInputs(sh.p, length)
				want, _ := gather(net, m, sh.p, inputs, Ring)
				got, _ := gather(net, m, sh.p, inputs, Hierarchical)
				for r := 0; r < sh.p; r++ {
					if len(got[r]) != length {
						t.Fatalf("p=%d q=%d %s len=%d: rank %d returned %d elems",
							sh.p, sh.q, m.Name(), length, r, len(got[r]))
					}
					for i := range got[r] {
						if got[r][i] != want[r][i] {
							t.Fatalf("p=%d q=%d %s len=%d: rank %d elem %d: hierarchical %g != ring %g (integer sums must be hex-exact)",
								sh.p, sh.q, m.Name(), length, r, i, got[r][i], want[r][i])
						}
					}
				}
			}
		}
	}
}

// TestHierarchicalSegmentBitIdenticalToFull: splitting the vector at
// the schedule's chunk bounds and reducing each segment where it lies
// (Schedule.Run) must reproduce the one-shot Hierarchical bit for bit on
// arbitrary (non-integer) payloads — the contract behind the collective
// engine's hierarchical overlap.
func TestHierarchicalSegmentBitIdenticalToFull(t *testing.T) {
	shapes := []struct{ p, q int }{{8, 4}, {10, 4}, {6, 2}, {9, 3}}
	for _, sh := range shapes {
		net := sunwayQ(sh.q)
		m := topology.AdjacentMapping{Q: sh.q}
		K := topology.MinGroupSize(m, sh.p)
		for _, length := range []int{3, 64, 1001} {
			inputs := randInputs(sh.p, length)
			full, _ := gather(net, m, sh.p, inputs, Hierarchical)

			bounds := HierChunkBounds(length, K)
			got := padded(inputs)
			for c := 0; c < K; c++ {
				lo, hi := bounds[c], bounds[c+1]
				if lo == hi {
					continue
				}
				simnet.NewCluster(net, m, sh.p).Run(func(n *simnet.Node) {
					schedHierarchical.Run(n, got[n.Rank][lo:hi], lo, length)
				})
			}
			for r := 0; r < sh.p; r++ {
				for i := range full[r] {
					if got[r][i] != full[r][i] {
						t.Fatalf("p=%d q=%d len=%d rank %d elem %d: segment %g != one-shot %g (must be bit-identical)",
							sh.p, sh.q, length, r, i, got[r][i], full[r][i])
					}
				}
			}
		}
	}
}

// TestHierarchicalSegmentRejectsUnalignedBounds: a bucket boundary off
// the leader-chunk partition cannot reproduce the barrier association
// order and must be refused loudly.
func TestHierarchicalSegmentRejectsUnalignedBounds(t *testing.T) {
	net := sunwayQ(2)
	cl := simnet.NewCluster(net, topology.AdjacentMapping{Q: 2}, 4)
	data := make([]float32, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned segment bound was accepted")
		}
	}()
	cl.Run(func(n *simnet.Node) {
		schedHierarchical.Run(n, data[1:3], 1, 100) // 1 not on HierChunkBounds(100, 2)
	})
}

func TestHierarchicalInputNotModified(t *testing.T) {
	const p, q, length = 8, 4, 100
	inputs := intInputs(p, length)
	copies := make([][]float32, p)
	for r := range inputs {
		copies[r] = append([]float32(nil), inputs[r]...)
	}
	gather(sunwayQ(q), topology.AdjacentMapping{Q: q}, p, inputs, Hierarchical)
	for r := range inputs {
		for i := range inputs[r] {
			if inputs[r][i] != copies[r][i] {
				t.Fatalf("rank %d input modified at %d", r, i)
			}
		}
	}
}

func TestHierarchicalZeroLength(t *testing.T) {
	for _, sh := range []struct{ p, q int }{{4, 2}, {5, 2}, {3, 1}} {
		out, _ := gather(sunwayQ(sh.q), topology.AdjacentMapping{Q: sh.q}, sh.p,
			make([][]float32, sh.p), Hierarchical)
		for r, o := range out {
			if len(o) != 0 {
				t.Fatalf("p=%d q=%d rank %d: zero-length collective returned %d elems", sh.p, sh.q, r, len(o))
			}
		}
	}
}

// TestHierarchicalFewerCrossingsAndFasterThanFlatRHD: under the
// adjacent mapping at p > q, the hierarchical schedule must push
// strictly fewer bytes across supernode boundaries than flat RHD
// (the message count ties — both keep RHD's log-round latency
// structure — but the leaders exchange 1/g-sized chunks) and finish
// with a smaller simulated makespan on a bandwidth-bound payload —
// the measured counterpart of the Eqn. 4 vs HierarchicalCost
// comparison.
func TestHierarchicalFewerCrossingsAndFasterThanFlatRHD(t *testing.T) {
	const p, q, length = 16, 4, 1 << 12
	net := sunwayQ(q)
	m := topology.AdjacentMapping{Q: q}
	inputs := intInputs(p, length)
	run := func(alg Algorithm) topology.Result {
		cl := simnet.NewCluster(net, m, p)
		cl.BytesPerElem = 4096 // inflate to a bandwidth-bound virtual gradient
		return cl.Run(func(n *simnet.Node) { alg(n, inputs[n.Rank]) })
	}
	flat := run(RecursiveHalvingDoubling)
	hier := run(Hierarchical)
	if hier.CrossBytes >= flat.CrossBytes {
		t.Fatalf("hierarchical cross-supernode bytes %d not below flat RHD's %d", hier.CrossBytes, flat.CrossBytes)
	}
	if hier.Time >= flat.Time {
		t.Fatalf("hierarchical makespan %g not below adjacent-mapped flat RHD's %g", hier.Time, flat.Time)
	}
}
