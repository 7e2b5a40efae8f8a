package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

// sameSupernode reports whether two logical ranks map to the same
// physical supernode under the mapping.
func sameSupernode(m Mapping, a, b, p int) bool {
	return m.Supernode(a, p) == m.Supernode(b, p)
}

func TestMappingsCoverAllSupernodes(t *testing.T) {
	for _, p := range []int{8, 64, 256, 1024} {
		for _, q := range []int{4, 64, 256} {
			adj := AdjacentMapping{Q: q}
			rr := RoundRobinMapping{Q: q}
			if err := Validate(adj, p, q); err != nil {
				t.Errorf("adjacent p=%d q=%d: %v", p, q, err)
			}
			if err := Validate(rr, p, q); err != nil {
				t.Errorf("round-robin p=%d q=%d: %v", p, q, err)
			}
		}
	}
}

// TestValidateRejectsBadMappings: a mapping with Q < 1 is an error, not
// a division by zero, and an over-full mapping names its lowest
// over-full supernode on every call.
func TestValidateRejectsBadMappings(t *testing.T) {
	for _, m := range []Mapping{AdjacentMapping{Q: 0}, RoundRobinMapping{Q: 0}} {
		err := Validate(m, 8, 4)
		if err == nil || !strings.Contains(err.Error(), "Q = 0") {
			t.Errorf("%s Q = 0: got %v, want a Q error", m.Name(), err)
		}
	}
	// Q = 8 on a q = 4 network: supernodes 0, 1 and 2 each hold 8 ranks.
	const want = "topology: mapping adjacent puts 8 ranks in supernode 0 (max 4)"
	for i := 0; i < 20; i++ {
		if err := Validate(AdjacentMapping{Q: 8}, 24, 4); err == nil || err.Error() != want {
			t.Fatalf("call %d: got %v, want %q", i, err, want)
		}
	}
}

func TestAdjacentMappingLayout(t *testing.T) {
	m := AdjacentMapping{Q: 256}
	if m.Supernode(0, 1024) != 0 || m.Supernode(255, 1024) != 0 {
		t.Fatal("first 256 ranks must share supernode 0")
	}
	if m.Supernode(256, 1024) != 1 || m.Supernode(1023, 1024) != 3 {
		t.Fatal("adjacent layout wrong")
	}
}

func TestRoundRobinMappingLayout(t *testing.T) {
	// Paper example: 4 supernodes; nodes 0,4,8,... in supernode 0,
	// nodes 1,5,9,... in supernode 1.
	m := RoundRobinMapping{Q: 256}
	p := 1024
	for r := 0; r < 64; r++ {
		if m.Supernode(r, p) != r%4 {
			t.Fatalf("rank %d -> supernode %d, want %d", r, m.Supernode(r, p), r%4)
		}
	}
}

func TestRoundRobinKeepsSmallDistancesLocal(t *testing.T) {
	// The property the paper's all-reduce exploits: under round-robin
	// numbering, ranks at distance multiples of S (supernode count)
	// share a supernode, so the big early halving exchanges at
	// distance p/2, p/4, ..., S stay local.
	q := 256
	p := 1024
	s := p / q // 4 supernodes
	m := RoundRobinMapping{Q: q}
	for d := p / 2; d >= s; d /= 2 {
		for _, r := range []int{0, 5, 100, 999 - d} {
			if !sameSupernode(m, r, r+d, p) {
				t.Fatalf("distance %d exchange (%d,%d) should be intra-supernode", d, r, r+d)
			}
		}
	}
	// While under adjacent numbering the same distances all cross.
	adj := AdjacentMapping{Q: q}
	for d := p / 2; d >= q; d /= 2 {
		if sameSupernode(adj, 0, d, p) {
			t.Fatalf("adjacent: distance %d from 0 should cross supernodes", d)
		}
	}
}

func TestMappingProperty(t *testing.T) {
	f := func(r16 uint16, pSel, qSel uint8) bool {
		ps := []int{8, 32, 256, 1024}[pSel%4]
		qs := []int{4, 16, 256}[qSel%3]
		r := int(r16) % ps
		adj := AdjacentMapping{Q: qs}.Supernode(r, ps)
		rr := RoundRobinMapping{Q: qs}.Supernode(r, ps)
		s := (ps + qs - 1) / qs
		return adj >= 0 && rr >= 0 && rr < s && adj <= (ps-1)/qs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNetworkCurves(t *testing.T) {
	sw := Sunway()
	ib := InfinibandFDR()

	// Fig. 6: similar high bandwidth at large messages, SW higher
	// latency beyond the 2KB rendezvous threshold.
	bigSW := sw.Bandwidth(4<<20, true)
	bigIB := ib.Bandwidth(4<<20, true)
	if bigSW < bigIB {
		t.Fatalf("SW large-message bandwidth (%g) should exceed FDR (%g)", bigSW, bigIB)
	}
	if sw.P2PTime(8<<10, true) <= ib.P2PTime(8<<10, true) {
		t.Fatal("SW latency should exceed Infiniband past the 2KB threshold")
	}
	if sw.Alpha(1024) >= sw.Alpha(64<<10) {
		t.Fatal("rendezvous latency must exceed eager latency")
	}

	// Over-subscribed cross-supernode bandwidth is about a quarter of
	// the intra-supernode bandwidth (paper Sec. II-B).
	ratio := sw.Bandwidth(4<<20, true) / sw.Bandwidth(4<<20, false)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("over-subscription ratio %g, want ~4", ratio)
	}

	// Bandwidth monotone in message size within each protocol regime
	// (a dip exactly at the eager->rendezvous switch is the measured
	// behaviour Fig. 6 shows).
	prev := 0.0
	for sz := int64(64); sz <= sw.RendezvousSize; sz *= 4 {
		bw := sw.Bandwidth(sz, true)
		if bw < prev {
			t.Fatalf("eager-regime bandwidth decreasing at %d", sz)
		}
		prev = bw
	}
	prev = 0.0
	for sz := sw.RendezvousSize * 2; sz <= 4<<20; sz *= 4 {
		bw := sw.Bandwidth(sz, true)
		if bw < prev {
			t.Fatalf("rendezvous-regime bandwidth decreasing at %d", sz)
		}
		prev = bw
	}
	// Peak lands near the measured 11-12 GB/s MPI figure.
	if bigSW < 9e9 || bigSW > 12e9 {
		t.Fatalf("SW peak P2P %g, want ~11 GB/s", bigSW)
	}

	// CPE-cluster reduction is faster than MPE reduction (Sec. V-A).
	if sw.GammaCPE >= sw.GammaMPE {
		t.Fatal("CPE reduction must beat MPE reduction")
	}
}

// TestMembersLeadersMinGroupSize pins the supernode membership
// helpers the hierarchical all-reduce schedules against, for both
// mappings including ragged shapes (p % q != 0, p < q, q = 1).
func TestMembersLeadersMinGroupSize(t *testing.T) {
	cases := []struct {
		m       Mapping
		p       int
		groups  [][]int
		leaders []int
		minSize int
	}{
		{AdjacentMapping{Q: 4}, 8, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}, []int{0, 4}, 4},
		{AdjacentMapping{Q: 4}, 10, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}}, []int{0, 4, 8}, 2},
		{AdjacentMapping{Q: 8}, 3, [][]int{{0, 1, 2}}, []int{0}, 3},
		{AdjacentMapping{Q: 1}, 3, [][]int{{0}, {1}, {2}}, []int{0, 1, 2}, 1},
		{RoundRobinMapping{Q: 4}, 8, [][]int{{0, 2, 4, 6}, {1, 3, 5, 7}}, []int{0, 1}, 4},
		{RoundRobinMapping{Q: 4}, 10, [][]int{{0, 3, 6, 9}, {1, 4, 7}, {2, 5, 8}}, []int{0, 1, 2}, 3},
		{RoundRobinMapping{Q: 8}, 3, [][]int{{0, 1, 2}}, []int{0}, 3},
	}
	for _, tc := range cases {
		got := Members(tc.m, tc.p)
		if len(got) != len(tc.groups) {
			t.Fatalf("%s p=%d: %d groups, want %d (%v)", tc.m.Name(), tc.p, len(got), len(tc.groups), got)
		}
		total := 0
		for s, g := range got {
			total += len(g)
			if len(g) != len(tc.groups[s]) {
				t.Fatalf("%s p=%d group %d: %v, want %v", tc.m.Name(), tc.p, s, g, tc.groups[s])
			}
			for i, r := range g {
				if r != tc.groups[s][i] {
					t.Fatalf("%s p=%d group %d: %v, want %v", tc.m.Name(), tc.p, s, g, tc.groups[s])
				}
				if sn := tc.m.Supernode(r, tc.p); sn != tc.m.Supernode(g[0], tc.p) {
					t.Fatalf("%s p=%d: group %d mixes supernodes", tc.m.Name(), tc.p, s)
				}
			}
		}
		if total != tc.p {
			t.Fatalf("%s p=%d: groups cover %d ranks", tc.m.Name(), tc.p, total)
		}
		leaders := Leaders(tc.m, tc.p)
		for i, l := range leaders {
			if l != tc.leaders[i] {
				t.Fatalf("%s p=%d: leaders %v, want %v", tc.m.Name(), tc.p, leaders, tc.leaders)
			}
		}
		if ms := MinGroupSize(tc.m, tc.p); ms != tc.minSize {
			t.Fatalf("%s p=%d: MinGroupSize %d, want %d", tc.m.Name(), tc.p, ms, tc.minSize)
		}
	}
}

// TestLayoutMatchesMembers: the memoised layout must say exactly what
// Members, MinGroupSize and sameSupernode say, for ragged shapes under
// both mappings.
func TestLayoutMatchesMembers(t *testing.T) {
	for _, sh := range []struct{ p, q int }{{1, 4}, {8, 4}, {10, 4}, {7, 3}, {5, 1}, {3, 8}, {33, 8}} {
		for _, m := range []Mapping{AdjacentMapping{Q: sh.q}, RoundRobinMapping{Q: sh.q}} {
			l := NewLayout(m, sh.p)
			groups := Members(m, sh.p)
			if len(l.Groups) != len(groups) || l.MinSize != MinGroupSize(m, sh.p) {
				t.Fatalf("p=%d q=%d %s: %d groups min %d, want %d min %d", sh.p, sh.q, m.Name(),
					len(l.Groups), l.MinSize, len(groups), MinGroupSize(m, sh.p))
			}
			for a := 0; a < sh.p; a++ {
				if got := l.Groups[l.GroupOf[a]][l.IndexOf[a]]; got != a {
					t.Fatalf("p=%d q=%d %s: rank %d resolves to %d", sh.p, sh.q, m.Name(), a, got)
				}
				for b := 0; b < sh.p; b++ {
					if l.Same(a, b) != sameSupernode(m, a, b, sh.p) {
						t.Fatalf("p=%d q=%d %s: Same(%d,%d) disagrees with sameSupernode", sh.p, sh.q, m.Name(), a, b)
					}
				}
			}
			for c := 0; c < l.MinSize; c++ {
				for s, g := range groups {
					if l.Leaders(c)[s] != g[c] {
						t.Fatalf("p=%d q=%d %s: Leaders(%d)[%d] = %d, want %d", sh.p, sh.q, m.Name(), c, s, l.Leaders(c)[s], g[c])
					}
				}
			}
		}
	}
}
