package swnode_test

import (
	"sync"
	"testing"

	"swcaffe/internal/sw26010"
	"swcaffe/internal/swnode"
)

// TestSoftPinHealthyNodeMatchesHardPin: on a balanced healthy node the
// steal condition never triggers, so soft pins place exactly like hard
// pins — the bit-compat guarantee that lets a trainer switch to
// soft-pinned streams without moving a single launch.
func TestSoftPinHealthyNodeMatchesHardPin(t *testing.T) {
	node := swnode.NewDESNode(nil)
	defer node.Close()
	streams := make([]*swnode.Stream, sw26010.CoreGroups)
	for i := range streams {
		streams[i] = node.SoftPinnedStream(i)
	}
	for round := 0; round < 5; round++ {
		for i, st := range streams {
			e := st.LaunchFunc(1, func() float64 { return 1 })
			if e.Wait(); e.CGIndex() != i {
				t.Fatalf("round %d: balanced soft pin %d placed on CG %d", round, i, e.CGIndex())
			}
		}
	}
}

// TestSoftPinStealsFromSkewedLoad: a soft-pinned stream whose
// preferred CG carries a skewed backlog migrates to less-loaded CGs —
// and the decision depends only on the launch/weight sequence, so two
// identical runs place identically.
func TestSoftPinStealsFromSkewedLoad(t *testing.T) {
	run := func() []int {
		node := swnode.NewDESNode(nil)
		defer node.Close()
		// Skew CG0: a hard-pinned launch with heavy weight.
		node.PinnedStream(0).LaunchFunc(10, func() float64 { return 10 })
		soft := node.SoftPinnedStream(0)
		var cgs []int
		for i := 0; i < 6; i++ {
			e := soft.LaunchFunc(1, func() float64 { return 1 })
			e.Wait()
			cgs = append(cgs, e.CGIndex())
		}
		node.Sync()
		return cgs
	}
	first := run()
	stolen := false
	for _, cg := range first {
		if cg != 0 {
			stolen = true
		}
	}
	if !stolen {
		t.Fatalf("no launch stolen off the skewed CG: placements %v", first)
	}
	for trial := 0; trial < 3; trial++ {
		if got := run(); len(got) != len(first) || !equalInts(got, first) {
			t.Fatalf("trial %d: steal placement diverged: %v vs %v", trial, got, first)
		}
	}
	// A hard pin under the same skew never moves.
	node := swnode.NewDESNode(nil)
	defer node.Close()
	node.PinnedStream(0).LaunchFunc(10, func() float64 { return 10 })
	hard := node.PinnedStream(0)
	for i := 0; i < 6; i++ {
		if e := hard.LaunchFunc(1, func() float64 { return 1 }); e.Wait() >= 0 && e.CGIndex() != 0 {
			t.Fatalf("hard pin moved to CG %d", e.CGIndex())
		}
	}
}

// TestDegradedCGSpeed: SetCGSpeed stretches the modeled duration of
// launches placed on the degraded CG and steers the scheduler's
// effective loads, so soft-pinned and unpinned work drains away from
// it; the healthy speed of 1 changes no bits.
func TestDegradedCGSpeed(t *testing.T) {
	node := swnode.NewDESNode(nil)
	defer node.Close()
	node.SetCGSpeed(2, 0.25)

	// Duration scaling: a unit kernel on the degraded CG models 4x.
	e := node.PinnedStream(2).LaunchFunc(1, func() float64 { return 1 })
	if got := e.Wait(); got != 4 {
		t.Fatalf("degraded CG modeled duration %v, want 4", got)
	}
	h := node.PinnedStream(1).LaunchFunc(1, func() float64 { return 1 })
	if got := h.Wait(); got != 1 {
		t.Fatalf("healthy CG modeled duration %v, want 1", got)
	}

	// Scheduling: with equal cumulative weights, the degraded CG's
	// effective backlog is 4x, so a soft pin on it steals away.
	s := node.SoftPinnedStream(2).LaunchFunc(1, func() float64 { return 1 })
	s.Wait()
	if s.CGIndex() == 2 {
		t.Fatalf("soft pin stayed on degraded CG despite 4x effective backlog")
	}

	// Unpinned placement avoids the degraded CG while healthy CGs have
	// less effective backlog.
	u := node.NewStream().LaunchFunc(1, func() float64 { return 1 })
	u.Wait()
	if u.CGIndex() == 2 {
		t.Fatalf("unpinned launch placed on degraded CG")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("non-positive speed accepted")
			}
		}()
		node.SetCGSpeed(0, 0)
	}()
}

// TestNodeCloseIdempotent is the regression test for the shrink
// protocol's double-close: a failed rank's node is closed directly
// when the world shrinks, and again when the cluster winds down. The
// second (and any concurrent) Close must be a quiet no-op — never a
// second drain of the replaced stream's events.
func TestNodeCloseIdempotent(t *testing.T) {
	cluster := swnode.NewCluster(2, nil)
	node := cluster.Node(0)

	// Poison a stream, recover, and continue on a replacement — the
	// state a trainer is in right before it shrinks away this node.
	bad := node.PinnedStream(0).Launch(func(cg *sw26010.CoreGroup) float64 {
		return cg.RunN(1, func(pe *sw26010.CPE) { panic("injected") })
	})
	func() {
		defer func() { recover() }()
		bad.Wait()
	}()
	func() {
		defer func() { recover() }()
		node.Sync()
	}()
	repl := node.PinnedStream(0)
	if e := repl.Launch(func(cg *sw26010.CoreGroup) float64 {
		return cg.RunN(1, func(pe *sw26010.CPE) { pe.AdvanceClock(1) })
	}); e.Wait() != 1 {
		t.Fatal("replacement stream unusable")
	}

	// Shrink closes the failed node directly; cluster teardown closes
	// it again; a paranoid caller closes the cluster twice. All quiet,
	// including concurrently.
	node.Close()
	cluster.Close()
	cluster.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			node.Close()
		}()
	}
	wg.Wait()

	// A closed node refuses new launches rather than deadlocking.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("launch on closed node did not panic")
			}
		}()
		node.NewStream().Launch(func(cg *sw26010.CoreGroup) float64 { return 0 })
	}()
}

func equalInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
