package swnode_test

import (
	"testing"

	"swcaffe/internal/sw26010"
	"swcaffe/internal/swnode"
)

// TestClusterNodesAreIndependent: launches on different nodes of a
// cluster run on disjoint CoreGroups with disjoint timelines — node
// i's makespan depends only on its own launch sequence.
func TestClusterNodesAreIndependent(t *testing.T) {
	const p = 4
	cl := swnode.NewCluster(p, nil)
	defer cl.Close()

	streams := make([]*swnode.Stream, p)
	for i := 0; i < p; i++ {
		streams[i] = cl.Node(i).PinnedStream(0)
	}
	// Node i runs i+1 unit launches back to back.
	for i := 0; i < p; i++ {
		for j := 0; j <= i; j++ {
			streams[i].Launch(func(cg *sw26010.CoreGroup) float64 { return 1 })
		}
	}
	cl.Sync()
	for i := 0; i < p; i++ {
		if st := cl.Node(i).SimTime(); st != float64(i+1) {
			t.Fatalf("node %d makespan %g, want %d (timelines must be independent)", i, st, i+1)
		}
	}
}

// TestClusterDeterministicTimes: the same launch program yields
// bit-identical per-node simulated times across two fresh clusters.
func TestClusterDeterministicTimes(t *testing.T) {
	const p = 3
	run := func() []float64 {
		cl := swnode.NewCluster(p, nil)
		defer cl.Close()
		for i := 0; i < p; i++ {
			st := cl.Node(i).PinnedStream(i % sw26010.CoreGroups)
			for j := 0; j < 5; j++ {
				cost := float64(i*7+j+1) * 1e-6
				st.Launch(func(cg *sw26010.CoreGroup) float64 { return cost })
			}
		}
		cl.Sync()
		times := make([]float64, p)
		for i := range times {
			times[i] = cl.Node(i).SimTime()
		}
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d simulated time not reproducible: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestClusterSyncPropagatesPanicAfterQuiesce: a kernel panic on one
// node re-raises from Cluster.Sync, and only after every other node's
// outstanding work has joined (no in-flight launches survive Sync).
func TestClusterSyncPropagatesPanicAfterQuiesce(t *testing.T) {
	cl := swnode.NewCluster(2, nil)
	defer cl.Close()

	cl.Node(0).PinnedStream(0).Launch(func(cg *sw26010.CoreGroup) float64 {
		return cg.RunN(1, func(pe *sw26010.CPE) { panic("kernel fault") })
	})
	done := false
	cl.Node(1).PinnedStream(0).Launch(func(cg *sw26010.CoreGroup) float64 {
		done = true
		return 1e-6
	})

	recovered := func() (r any) {
		defer func() { r = recover() }()
		cl.Sync()
		return nil
	}()
	if recovered == nil {
		t.Fatal("Cluster.Sync swallowed the kernel panic")
	}
	if !done {
		t.Fatal("Sync re-raised before the healthy node quiesced")
	}

	// The cluster stays usable after the failure, like a Node does.
	ev := cl.Node(0).PinnedStream(0).Launch(func(cg *sw26010.CoreGroup) float64 { return 1e-6 })
	cl.Sync()
	if ev.Wait() != 1e-6 {
		t.Fatal("post-failure launch did not complete")
	}
}
