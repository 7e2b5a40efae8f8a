package swnode_test

import (
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swcaffe/internal/sw26010"
	"swcaffe/internal/swdnn"
	"swcaffe/internal/swnode"
)

// fill matches the deterministic generator of the swdnn invariance
// harness so the gemm64 scenario here is byte-for-byte the golden one.
func fill(s []float32, seed uint32) {
	x := seed*2654435761 + 12345
	for i := range s {
		x = x*1664525 + 1013904223
		s[i] = float32(x>>16)/65536.0 - 0.5
	}
}

// goldenGEMM64Time reads the simulated time of the gemm64 scenario
// from the swdnn engine-invariance golden (hex-exact float64).
func goldenGEMM64Time(t *testing.T) float64 {
	t.Helper()
	data, err := os.ReadFile("../swdnn/testdata/invariance.json")
	if err != nil {
		t.Fatalf("reading invariance golden: %v", err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	hx, ok := golden["gemm64"]["time"]
	if !ok {
		t.Fatal("golden has no gemm64.time")
	}
	f, err := strconv.ParseFloat(hx, 64)
	if err != nil {
		t.Fatalf("parsing golden hex float %q: %v", hx, err)
	}
	return f
}

// TestConcurrentLaunchesMatchGolden runs the invariance gemm64
// scenario simultaneously on all four CoreGroups of one Node: every
// launch's simulated time must equal the single-CG golden exactly
// (concurrency is host-side only), and the unpinned scheduler must
// spread the four launches across the four CGs.
func TestConcurrentLaunchesMatchGolden(t *testing.T) {
	want := goldenGEMM64Time(t)
	node := swnode.NewNode(nil)
	defer node.Close()

	const m, k, n = 64, 64, 64
	events := make([]*swnode.Event, sw26010.CoreGroups)
	outs := make([][]float32, sw26010.CoreGroups)
	var ref []float32
	for i := 0; i < sw26010.CoreGroups; i++ {
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		c := make([]float32, m*n)
		fill(a, 1)
		fill(b, 2)
		fill(c, 3)
		if ref == nil {
			ref = make([]float32, m*n)
			fr := append([]float32(nil), c...)
			cg := sw26010.NewCoreGroup(nil)
			swdnn.GEMMRun(cg, a, b, fr, m, k, n)
			copy(ref, fr)
			cg.Close()
		}
		outs[i] = c
		events[i] = node.NewStream().Launch(func(cg *sw26010.CoreGroup) float64 {
			return swdnn.GEMMRun(cg, a, b, c, m, k, n)
		})
	}
	node.Sync()

	seen := map[int]bool{}
	for i, e := range events {
		if got := e.Wait(); got != want {
			t.Errorf("launch %d: simulated time %v != golden %v", i, got, want)
		}
		if seen[e.CGIndex()] {
			t.Errorf("launch %d: CG %d used twice — scheduler did not spread independent launches", i, e.CGIndex())
		}
		seen[e.CGIndex()] = true
		for j := range outs[i] {
			if outs[i][j] != ref[j] {
				t.Fatalf("launch %d: output diverges at %d", i, j)
			}
		}
	}
}

// TestIndependentLaunchesOverlapWallClock demonstrates that four
// independent launches on one Node are not serialized: each kernel
// blocks for a fixed wall interval, so four of them complete in well
// under 2x a single launch even on one host core. (CPU-bound speedup
// is a property of the host's core count, not of the engine; blocking
// isolates the scheduling behavior the test is about.)
func TestIndependentLaunchesOverlapWallClock(t *testing.T) {
	node := swnode.NewNode(nil)
	defer node.Close()
	const pause = 100 * time.Millisecond
	kernel := func(cg *sw26010.CoreGroup) float64 {
		time.Sleep(pause)
		return 1
	}

	single := time.Now()
	node.NewStream().Launch(kernel).Wait()
	singleDur := time.Since(single)

	start := time.Now()
	var events []*swnode.Event
	for i := 0; i < sw26010.CoreGroups; i++ {
		events = append(events, node.NewStream().Launch(kernel))
	}
	node.Sync()
	concurrent := time.Since(start)

	for i, e := range events {
		if e.Wait() != 1 {
			t.Fatalf("launch %d: wrong simulated time", i)
		}
	}
	if concurrent >= 2*singleDur {
		t.Errorf("4 independent launches took %v, want < 2x single launch (%v)", concurrent, singleDur)
	}
}

// TestStreamOrdering: launches on one stream run strictly in
// submission order even when placed on the same CG, and Event
// dependencies order launches across streams.
func TestStreamOrdering(t *testing.T) {
	node := swnode.NewNode(nil)
	defer node.Close()

	var order []int
	var mu sync.Mutex
	record := func(id int) func(cg *sw26010.CoreGroup) float64 {
		return func(cg *sw26010.CoreGroup) float64 {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return 1
		}
	}

	st := node.PinnedStream(2)
	for i := 0; i < 8; i++ {
		st.Launch(record(i))
	}
	if got := st.Wait(); got != 8 {
		t.Fatalf("stream modeled finish = %v, want 8 (8 chained unit launches)", got)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("stream order violated: %v", order)
		}
	}

	// Cross-stream dependency: consumer waits for producer's event.
	var flag atomic.Bool
	prod := node.PinnedStream(0).Launch(func(cg *sw26010.CoreGroup) float64 {
		time.Sleep(20 * time.Millisecond)
		flag.Store(true)
		return 3
	})
	cons := node.PinnedStream(1).Launch(func(cg *sw26010.CoreGroup) float64 {
		if !flag.Load() {
			t.Error("consumer ran before its dependency resolved")
		}
		return 2
	}, prod)
	node.Sync()
	if prod.SimEnd() != 3 {
		t.Fatalf("producer SimEnd = %v", prod.SimEnd())
	}
	// The consumer's modeled interval starts at the producer's end.
	if cons.SimStart() != 3 || cons.SimEnd() != 5 {
		t.Fatalf("consumer modeled [%v, %v], want [3, 5]", cons.SimStart(), cons.SimEnd())
	}
}

// TestSchedulerPlacementDeterminism: the same launch sequence yields
// the same placements and modeled times on every run, pinned streams
// always land on their CG, and weighted launches bias the load.
func TestSchedulerPlacementDeterminism(t *testing.T) {
	run := func() ([]int, []float64) {
		node := swnode.NewNode(nil)
		defer node.Close()
		kernel := func(d float64) func(cg *sw26010.CoreGroup) float64 {
			return func(cg *sw26010.CoreGroup) float64 { return d }
		}
		var cgs []int
		var ends []float64
		var events []*swnode.Event
		st := node.NewStream()
		pinned := node.PinnedStream(3)
		for i := 0; i < 12; i++ {
			var e *swnode.Event
			switch {
			case i%4 == 3:
				e = pinned.Launch(kernel(float64(i)))
			case i%2 == 0:
				d := float64(i)
				e = node.NewStream().LaunchFunc(2, func() float64 { return d })
			default:
				e = st.Launch(kernel(float64(i)))
			}
			events = append(events, e)
		}
		node.Sync()
		for _, e := range events {
			cgs = append(cgs, e.CGIndex())
			ends = append(ends, e.SimEnd())
		}
		return cgs, ends
	}

	cgs1, ends1 := run()
	for trial := 0; trial < 3; trial++ {
		cgs2, ends2 := run()
		for i := range cgs1 {
			if cgs1[i] != cgs2[i] {
				t.Fatalf("trial %d: placement diverged at launch %d: %v vs %v", trial, i, cgs1, cgs2)
			}
			if ends1[i] != ends2[i] {
				t.Fatalf("trial %d: modeled time diverged at launch %d: %v vs %v", trial, i, ends1, ends2)
			}
		}
	}
	for i, cg := range cgs1 {
		if i%4 == 3 && cg != 3 {
			t.Fatalf("pinned launch %d placed on CG %d", i, cg)
		}
	}
}

// TestLaunchPanicPropagation: a panicking kernel poisons its
// dependents, Sync re-raises it once, and the node remains usable.
func TestLaunchPanicPropagation(t *testing.T) {
	node := swnode.NewNode(nil)
	defer node.Close()
	st := node.PinnedStream(0)
	bad := st.Launch(func(cg *sw26010.CoreGroup) float64 {
		return cg.RunN(1, func(pe *sw26010.CPE) { panic("boom") })
	})
	ran := false
	dependent := node.PinnedStream(1).Launch(func(cg *sw26010.CoreGroup) float64 {
		ran = true
		return 0
	}, bad)

	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not re-raise the kernel panic", name)
			}
		}()
		f()
	}
	mustPanic("Event.Wait", func() { bad.Wait() })
	mustPanic("dependent Wait", func() { dependent.Wait() })
	mustPanic("Node.Sync", func() { node.Sync() })
	if ran {
		t.Fatal("dependent kernel ran despite failed dependency")
	}

	// The node (and its CoreGroups) stay usable after the panic; a
	// poisoned stream is abandoned and a fresh one takes its place.
	ok := node.PinnedStream(0).Launch(func(cg *sw26010.CoreGroup) float64 { return 1 })
	if ok.Wait() != 1 {
		t.Fatal("node unusable after kernel panic")
	}
	node.Sync()
}

// TestConcurrentSubmitters hammers one Node from many goroutines
// (run under -race): every launch completes with its own simulated
// time and the launch count is exact.
func TestConcurrentSubmitters(t *testing.T) {
	node := swnode.NewNode(nil)
	defer node.Close()
	const goroutines = 8
	const perG = 10
	var wg sync.WaitGroup
	wg.Add(goroutines)
	var total atomic.Int64
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			st := node.NewStream()
			for i := 0; i < perG; i++ {
				d := float64(g*perG + i + 1)
				e := st.Launch(func(cg *sw26010.CoreGroup) float64 { return d })
				if got := e.Wait(); got != d {
					t.Errorf("launch sim time %v != %v", got, d)
					return
				}
				total.Add(1)
			}
		}(g)
	}
	wg.Wait()
	node.Sync()
	if total.Load() != goroutines*perG || node.Launches() != goroutines*perG {
		t.Fatalf("launch accounting: %d completed, node says %d", total.Load(), node.Launches())
	}
}

// TestDESNodeLaunchFunc: DES nodes run LaunchFunc launches inline with
// full stream/dependency ordering and modeled times but no CoreGroups;
// CoreGroup launches and CG access must be refused.
func TestDESNodeLaunchFunc(t *testing.T) {
	node := swnode.NewDESNode(nil)
	defer node.Close()
	if !node.DES() {
		t.Fatal("not a DES node")
	}

	var order []int
	var mu sync.Mutex
	st := node.NewStream()
	mark := func(id int, d float64) func() float64 {
		return func() float64 {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return d
		}
	}
	a := st.LaunchFunc(3, mark(1, 10))
	b := st.LaunchFunc(3, mark(2, 5))
	other := node.NewStream().LaunchFunc(1, mark(3, 7), b)
	node.Sync()

	if a.Wait() != 10 || b.Wait() != 5 || other.Wait() != 7 {
		t.Fatalf("modeled durations wrong: %v %v %v", a.Wait(), b.Wait(), other.Wait())
	}
	if b.SimStart() != 10 || b.SimEnd() != 15 {
		t.Fatalf("stream order not modeled: b=[%g,%g]", b.SimStart(), b.SimEnd())
	}
	if other.SimStart() != 15 || other.SimEnd() != 22 {
		t.Fatalf("event dependency not modeled: other=[%g,%g]", other.SimStart(), other.SimEnd())
	}
	mu.Lock()
	if order[0] != 1 || order[1] != 2 {
		t.Fatalf("stream launches ran out of order: %v", order)
	}
	mu.Unlock()
	if got := node.SimTime(); got != 22 {
		t.Fatalf("SimTime %g, want 22", got)
	}
	if st := node.Stats(); st.Flops != 0 {
		t.Fatalf("DES node reported mesh activity: %+v", st)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("CoreGroup launch accepted on a DES node")
			}
		}()
		node.NewStream().Launch(func(cg *sw26010.CoreGroup) float64 { return 0 })
	}()
}

// TestWarmDESLaunchAllocatesNothing: a DES launch has resolved before
// LaunchFunc returns, and its Event is a record the node reuses after
// Sync. Once a node holds as many records as it launches between
// Syncs, a launch with a pre-bound fn allocates nothing — no Event,
// wrapper closure, completion channel or wait list — with or without
// dependencies, on the default stream or another.
func TestWarmDESLaunchAllocatesNothing(t *testing.T) {
	node := swnode.NewDESNode(nil)
	defer node.Close()
	st, other := node.Stream(), node.NewStream()
	fn := func() float64 { return 1e-6 }
	step := func() {
		a := st.LaunchFunc(1, fn)
		other.LaunchFunc(1, fn, a)
		st.LaunchFunc(1, fn)
		node.Sync()
	}
	step()
	if got := testing.AllocsPerRun(100, step); got != 0 {
		t.Fatalf("three warm DES launches and a Sync allocate %v objects, want 0", got)
	}
}

// TestDESTimelineMatchesPooled: a DES node reuses its launch records
// after each Sync and starts a launch from the ends its predecessors
// left, by value. The modeled timeline must still be a pooled node's:
// two streams and a pinned one, interleaved launches with dependencies,
// three rounds between Syncs, and every launch's placement, SimStart,
// SimEnd and Wait, and SimTime after each round, equal on both. A DES
// node that kept one record per stream fails here: after the Sync, a
// reads its stream's last launch, f.
func TestDESTimelineMatchesPooled(t *testing.T) {
	type launch struct {
		cg               int
		start, end, wait float64
	}
	run := func(node *swnode.Node) (got []launch, simTimes []float64) {
		defer node.Close()
		s1, s2 := node.Stream(), node.NewStream()
		for round := 0; round < 3; round++ {
			d := func(i int) func() float64 {
				x := float64(round*7+i) * 0.25
				return func() float64 { return x }
			}
			a := s1.LaunchFunc(3, d(1))
			b := s2.LaunchFunc(1, d(2))
			c := s1.LaunchFunc(2, d(3), b)
			e := s2.LaunchFunc(1, d(4), a)
			f := s1.LaunchFunc(1, d(5))
			g := node.PinnedStream(round).LaunchFunc(1, d(6), c, e)
			node.Sync()
			for _, ev := range []*swnode.Event{a, b, c, e, f, g} {
				got = append(got, launch{ev.CGIndex(), ev.SimStart(), ev.SimEnd(), ev.Wait()})
			}
			simTimes = append(simTimes, node.SimTime())
		}
		return got, simTimes
	}
	pooled, pooledTimes := run(swnode.NewNode(nil))
	des, desTimes := run(swnode.NewDESNode(nil))
	for i := range pooled {
		if des[i] != pooled[i] {
			t.Errorf("round %d launch %d: DES %+v, pooled %+v", i/6, i%6, des[i], pooled[i])
		}
	}
	for r := range pooledTimes {
		if desTimes[r] != pooledTimes[r] {
			t.Errorf("round %d: DES SimTime %g, pooled %g", r, desTimes[r], pooledTimes[r])
		}
	}
}

// TestEventFitsItsSizeClass: a pooled node allocates an Event per
// launch, and 128 bytes is a malloc size class. One field more would
// move every launch up to the 144-byte class, which grows node_mesh's
// allocated bytes per op by about 4 %.
func TestEventFitsItsSizeClass(t *testing.T) {
	if swnode.EventBytes > 128 {
		t.Fatalf("an Event is %d bytes, want at most 128", swnode.EventBytes)
	}
}

// TestLaunchFuncOnPooledNode: LaunchFunc also works on pooled nodes,
// sharing the CG-slot scheduler with kernel launches.
func TestLaunchFuncOnPooledNode(t *testing.T) {
	node := swnode.NewNode(nil)
	defer node.Close()
	ev := node.NewStream().LaunchFunc(2, func() float64 { return 4 })
	if ev.Wait() != 4 {
		t.Fatal("LaunchFunc duration lost on pooled node")
	}
	if cg := ev.CGIndex(); cg < 0 || cg >= sw26010.CoreGroups {
		t.Fatalf("unscheduled CG slot %d", cg)
	}
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
	if e := repl.Launch(func(cg *sw26010.CoreGroup) float64 { return 1 }); e.Wait() != 1 {
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
