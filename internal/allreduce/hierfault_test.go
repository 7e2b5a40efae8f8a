package allreduce

import (
	"fmt"
	"testing"

	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// TestHierarchicalPhaseKillQuiesces kills a rank at each internal
// phase boundary of the hierarchical schedule — before the
// intra-supernode reduce-scatter, before the leader RHD, before the
// allgather — for both a chunk leader and a non-leader victim. Each
// kill must surface as simnet's rank-carrying NodePanic on the
// calling goroutine, and the *same* cluster must then run a clean
// hierarchical all-reduce that matches the flat Ring hex-exactly:
// the teardown joins every rank and drops the run's state, so a
// recovered failure never poisons the next collective.
func TestHierarchicalPhaseKillQuiesces(t *testing.T) {
	const p, q, length = 6, 2, 257
	net := sunwayQ(q)
	m := topology.AdjacentMapping{Q: q}
	cl := simnet.NewCluster(net, m, p)

	phases := []HierPhase{HierIntraReduceScatter, HierLeaderRHD, HierAllgather}
	// Adjacent q=2 groups are {0,1},{2,3},{4,5}: rank 2 leads chunk 0
	// of its supernode, rank 3 leads chunk 1 — kill one of each role.
	victims := []int{2, 3}

	for _, ph := range phases {
		for _, victim := range victims {
			name := fmt.Sprintf("%s/rank%d", ph, victim)
			inputs := intInputs(p, length)

			SetHierPhaseHook(func(rank int, _ float64, got HierPhase) {
				if rank == victim && got == ph {
					panic(fmt.Sprintf("injected@%s", got))
				}
			})
			pan := func() (r any) {
				defer func() { r = recover() }()
				cl.RunGather(func(n *simnet.Node) []float32 {
					return Hierarchical(n, inputs[n.Rank])
				})
				return nil
			}()
			SetHierPhaseHook(nil)

			if pan == nil {
				t.Fatalf("%s: kill did not surface from RunGather", name)
			}
			np, ok := pan.(simnet.NodePanic)
			if !ok {
				t.Fatalf("%s: panic value %T does not carry the failed rank", name, pan)
			}
			if np.FailedRank() != victim {
				t.Fatalf("%s: NodePanic names rank %d, want %d", name, np.FailedRank(), victim)
			}

			// Same cluster, next Run: unpoisoned and hex-exact.
			want, _ := gather(net, m, p, inputs, Ring)
			_, got := cl.RunGather(func(n *simnet.Node) []float32 {
				return Hierarchical(n, inputs[n.Rank])
			})
			for r := 0; r < p; r++ {
				for i := range want[r] {
					if got[r][i] != want[r][i] {
						t.Fatalf("%s: post-recovery run diverged on rank %d elem %d: %g != %g",
							name, r, i, got[r][i], want[r][i])
					}
				}
			}
		}
	}
}
