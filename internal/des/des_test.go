package des

import (
	"strings"
	"testing"

	"swcaffe/internal/topology"
)

func testCluster(p int) *Cluster {
	net := topology.Sunway()
	net.SupernodeSize = 4
	return NewCluster(net, topology.AdjacentMapping{Q: 4}, p)
}

// TestPingPongClocks pins the Send/Recv clock arithmetic against the
// cost model directly: a two-rank ping-pong where each leg's arrival
// time is max(receiver clock, send time) + α + βn.
func TestPingPongClocks(t *testing.T) {
	c := testCluster(2)
	payload := []float32{1, 2, 3, 4}
	alpha, transfer := c.linkCost(0, 1, len(payload))

	res, outs := c.RunGather(func(r *Rank) {
		switch r.Rank {
		case 0:
			r.Send(1, payload)
			r.Recv(1, func(data []float32) {
				r.Finish(data)
			})
		case 1:
			r.Recv(0, func(data []float32) {
				r.Send(0, data)
				r.Finish(data)
			})
		}
	})

	// Rank 1's recv starts at max(0, send time 0); its echo send then
	// advances it to 2(α+βn). Rank 0's recv starts at max(its own clock
	// after the send, the echo's send time) = α+βn, landing at 2(α+βn).
	leg := alpha + transfer
	if got, want := res.Clocks[1], leg+leg; got != want {
		t.Fatalf("rank 1 clock: got %v want %v", got, want)
	}
	if got, want := res.Clocks[0], leg+alpha+transfer; got != want {
		t.Fatalf("rank 0 clock: got %v want %v", got, want)
	}
	if res.Time != res.Clocks[0] {
		t.Fatalf("makespan %v, want rank 0's clock %v", res.Time, res.Clocks[0])
	}
	if res.Msgs != 2 {
		t.Fatalf("msgs: got %d want 2", res.Msgs)
	}
	for _, out := range outs {
		for i := range out {
			if out[i] != payload[i] {
				t.Fatalf("payload corrupted in flight: %v", out)
			}
		}
	}
}

// TestCrossSupernodeCensus: messages crossing the supernode boundary
// are counted with their byte volume; intra-supernode ones are not.
func TestCrossSupernodeCensus(t *testing.T) {
	c := testCluster(8) // q=4: ranks 0-3 and 4-7 in different supernodes
	data := make([]float32, 16)
	_, _ = c.RunGather(func(r *Rank) {
		defer r.Finish(nil)
		switch r.Rank {
		case 0:
			r.Send(1, data) // intra
		case 1:
			r.Recv(0, func([]float32) {})
		case 2:
			r.Send(5, data) // cross
		case 5:
			r.Recv(2, func([]float32) {})
		}
	})
	// Re-run to read the census (RunGather returns it).
	res, _ := c.RunGather(func(r *Rank) {
		defer r.Finish(nil)
		switch r.Rank {
		case 0:
			r.Send(1, data)
		case 1:
			r.Recv(0, func([]float32) {})
		case 2:
			r.Send(5, data)
		case 5:
			r.Recv(2, func([]float32) {})
		}
	})
	if res.Msgs != 2 || res.CrossMsgs != 1 {
		t.Fatalf("census: msgs=%d crossMsgs=%d, want 2/1", res.Msgs, res.CrossMsgs)
	}
	wantBytes := int64(float64(len(data)) * c.BytesPerElem)
	if res.CrossBytes != wantBytes {
		t.Fatalf("crossBytes: got %d want %d", res.CrossBytes, wantBytes)
	}
}

// TestDeadlockPanics: a rank parked on a message that never comes must
// surface as a deadlock panic naming the parked link, not a hang.
func TestDeadlockPanics(t *testing.T) {
	c := testCluster(2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "[1 0]") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c.Run(func(r *Rank) {
		if r.Rank == 0 {
			r.Recv(1, func([]float32) { r.Finish(nil) }) // never sent
			return
		}
		r.Finish(nil)
	})
}

// TestUnconsumedWirePanics: a message left queued on a link after every
// rank finished is a protocol bug the run must refuse to bless.
func TestUnconsumedWirePanics(t *testing.T) {
	c := testCluster(2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected unconsumed-message panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "unconsumed") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c.Run(func(r *Rank) {
		if r.Rank == 0 {
			r.Send(1, []float32{1})
		}
		r.Finish(nil)
	})
}

// TestRankPanicCarriesRank: a panic inside a rank body (or one of its
// continuations) is rewrapped as RankPanic so elastic recovery can
// identify the victim, matching simnet.NodePanic's contract.
func TestRankPanicCarriesRank(t *testing.T) {
	c := testCluster(4)
	defer func() {
		r := recover()
		rp, ok := r.(RankPanic)
		if !ok {
			t.Fatalf("expected RankPanic, got %T: %v", r, r)
		}
		if rp.FailedRank() != 2 {
			t.Fatalf("failed rank: got %d want 2", rp.FailedRank())
		}
		if rp.Value != "boom" {
			t.Fatalf("panic value: got %v want boom", rp.Value)
		}
	}()
	c.Run(func(r *Rank) {
		if r.Rank == 2 {
			panic("boom")
		}
		r.Finish(nil)
	})
}

// TestContinuationPanicCarriesRank: the rewrap must also catch panics
// raised inside heap-scheduled continuations, not just the seed call.
func TestContinuationPanicCarriesRank(t *testing.T) {
	c := testCluster(2)
	defer func() {
		rp, ok := recover().(RankPanic)
		if !ok || rp.FailedRank() != 1 {
			t.Fatalf("expected RankPanic from rank 1, got %v", rp)
		}
	}()
	c.Run(func(r *Rank) {
		if r.Rank == 0 {
			r.Send(1, []float32{1})
			r.Finish(nil)
			return
		}
		r.Recv(0, func([]float32) { panic("late") })
	})
}

// TestEventHeapTieBreak pins the scheduler's total order directly:
// events pop by (simTime, world rank, seq), so ties on the simulated
// clock break by rank and then by scheduling sequence — never by
// insertion accident.
func TestEventHeapTieBreak(t *testing.T) {
	events := []event{
		{time: 2, rank: 0, seq: 9},
		{time: 1, rank: 3, seq: 4},
		{time: 1, rank: 1, seq: 7},
		{time: 1, rank: 1, seq: 2},
		{time: 0, rank: 5, seq: 8},
		{time: 1, rank: 3, seq: 1},
	}
	want := []event{
		{time: 0, rank: 5, seq: 8},
		{time: 1, rank: 1, seq: 2},
		{time: 1, rank: 1, seq: 7},
		{time: 1, rank: 3, seq: 1},
		{time: 1, rank: 3, seq: 4},
		{time: 2, rank: 0, seq: 9},
	}
	// Every insertion order must yield the same pop order.
	for shift := 0; shift < len(events); shift++ {
		var h eventHeap
		for i := range events {
			h.push(events[(i+shift)%len(events)])
		}
		for i := range want {
			got := h.pop()
			if got.time != want[i].time || got.rank != want[i].rank || got.seq != want[i].seq {
				t.Fatalf("shift %d pop %d: got (%v,%d,%d) want (%v,%d,%d)",
					shift, i, got.time, got.rank, got.seq, want[i].time, want[i].rank, want[i].seq)
			}
		}
	}
}

// TestDoubleFinishPanics guards the one-result-per-rank contract.
func TestDoubleFinishPanics(t *testing.T) {
	c := testCluster(1)
	defer func() {
		r := recover()
		if rp, ok := r.(RankPanic); !ok || !strings.Contains(rp.Error(), "finished twice") {
			t.Fatalf("expected finished-twice RankPanic, got %v", r)
		}
	}()
	c.Run(func(r *Rank) {
		r.Finish(nil)
		r.Finish(nil)
	})
}

// TestSecondWaiterPanics: the at-most-one-parked-receiver invariant is
// a scheduler assertion, not silent corruption.
func TestSecondWaiterPanics(t *testing.T) {
	c := testCluster(2)
	defer func() {
		rp, ok := recover().(RankPanic)
		if !ok || !strings.Contains(rp.Error(), "second receiver") {
			t.Fatalf("expected second-receiver panic, got %v", rp)
		}
	}()
	c.Run(func(r *Rank) {
		if r.Rank == 1 {
			// Park two receives on the same link without chaining — a
			// protocol violation the scheduler must catch.
			r.Recv(0, func([]float32) {})
			r.Recv(0, func([]float32) {})
			return
		}
		r.Finish(nil)
	})
}

// shiftStorm is a p-rank ring-shift body whose continuations are built
// once, up front: rank r sends payload to r+1 and receives from r-1,
// shifts times. Nothing in it allocates per message, so whatever a run
// of it allocates is the engine's.
type shiftStorm struct {
	p, shifts int
	payload   []float32
	ranks     []shifter
}

type shifter struct {
	s      *shiftStorm
	r      *Rank
	k      int
	out    []float32 // what the rank finishes with
	onRecv func([]float32)
}

func newShiftStorm(p, shifts, elems int) *shiftStorm {
	s := &shiftStorm{p: p, shifts: shifts, payload: make([]float32, elems), ranks: make([]shifter, p)}
	for i := range s.ranks {
		sh := &s.ranks[i]
		sh.s = s
		sh.onRecv = func([]float32) { sh.k++; sh.shift() }
	}
	return s
}

func (s *shiftStorm) body(r *Rank) {
	sh := &s.ranks[r.Rank]
	sh.r, sh.k, sh.out = r, 0, nil
	sh.shift()
}

// resultBody is body with a result: two floats of the rank's arena.
func (s *shiftStorm) resultBody(r *Rank) {
	sh := &s.ranks[r.Rank]
	sh.r, sh.k, sh.out = r, 0, r.Scratch(2)
	sh.out[0], sh.out[1] = float32(r.Rank), 1
	sh.shift()
}

func (sh *shifter) shift() {
	if sh.k == sh.s.shifts {
		sh.r.Finish(sh.out)
		return
	}
	sh.r.Send((sh.r.Rank+1)%sh.s.p, sh.s.payload)
	sh.r.Recv((sh.r.Rank+sh.s.p-1)%sh.s.p, sh.onRecv)
}

// TestWarmStormAllocatesNothingPerMessage is the engine's allocation
// budget: on a warm cluster a p = 1024 storm of 16 384 4 KiB messages
// costs a constant two objects — the Result's clock copy and nothing
// else — so the per-message cost is exactly zero: no event, wire,
// waiter, link or continuation object.
func TestWarmStormAllocatesNothingPerMessage(t *testing.T) {
	const p, shifts = 1024, 16
	c := NewCluster(topology.Sunway(), topology.RoundRobinMapping{Q: topology.SupernodeSize}, p)
	storm := newShiftStorm(p, shifts, 1024)
	if res := c.Run(storm.body); res.Msgs != p*shifts {
		t.Fatalf("storm posted %d messages, want %d", res.Msgs, p*shifts)
	}
	const budget = 2
	if got := testing.AllocsPerRun(5, func() { c.Run(storm.body) }); got > budget {
		t.Fatalf("warm storm: %v allocations per run of %d messages, budget %d", got, p*shifts, budget)
	}
}

// TestRunStateRecycling pins when a run's state goes back to the pool:
// after a clean, fully drained run and never otherwise — and that a run
// on the cluster after any of the failures matches a fresh cluster's.
// What a run returns follows its state: a rank's result is its arena
// memory (Scratch), so a warm clean run hands back the previous run's
// and a run after a failure never the failed run's.
func TestRunStateRecycling(t *testing.T) {
	storm := newShiftStorm(6, 3, 8)
	want := testCluster(6).Run(storm.body)

	c := testCluster(6)
	var lastOut *float32 // rank 3's result memory in the last check
	check := func(after string) {
		t.Helper()
		got, outs := c.RunGather(storm.resultBody)
		for r, out := range outs {
			if len(out) != 2 || out[0] != float32(r) || out[1] != 1 {
				t.Fatalf("run after %s: rank %d returned %v", after, r, out)
			}
		}
		lastOut = &outs[3][0]
		if got.Time != want.Time || got.Msgs != want.Msgs || got.CrossBytes != want.CrossBytes {
			t.Fatalf("run after %s: %+v, want %+v", after, got, want)
		}
		for i := range want.Clocks {
			if got.Clocks[i] != want.Clocks[i] {
				t.Fatalf("run after %s: clock %d = %v, want %v", after, i, got.Clocks[i], want.Clocks[i])
			}
		}
		if c.pool == nil {
			t.Fatalf("clean run after %s did not recycle its state", after)
		}
	}
	check("nothing")
	first, firstOut := c.pool, lastOut
	check("a clean run")
	if c.pool != first {
		t.Fatal("a clean run did not reuse the pooled state")
	}
	if lastOut != firstOut {
		t.Fatal("a warm clean run did not reuse the previous run's result memory")
	}

	failing := []struct {
		name string
		body func(r *Rank)
	}{
		{"a rank panic with wires queued and waiters parked", func(r *Rank) {
			if r.Rank == 4 {
				panic("boom")
			}
			storm.body(r)
		}},
		{"a continuation panic", func(r *Rank) {
			if r.Rank == 2 {
				r.Send(3, storm.payload)
				r.Recv(1, func([]float32) { panic("late") })
				return
			}
			storm.body(r)
		}},
		{"a deadlock", func(r *Rank) {
			if r.Rank == 0 {
				r.Recv(5, func([]float32) { r.Finish(nil) })
				return
			}
			r.Finish(nil)
		}},
		{"an unconsumed message", func(r *Rank) {
			if r.Rank == 0 {
				r.Send(1, storm.payload)
			}
			r.Finish(nil)
		}},
	}
	for _, f := range failing {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: run did not panic", f.name)
				}
			}()
			c.Run(f.body)
		}()
		if c.pool != nil {
			t.Fatalf("%s: the failed run's state was recycled", f.name)
		}
		before := lastOut
		check(f.name)
		if lastOut == before {
			t.Fatalf("the run after %s reused the result memory the failed run had", f.name)
		}
	}

	// A receive nothing is ever sent to, on a rank that finishes anyway,
	// is legal — but its waiter must not survive into the next run.
	c.Run(func(r *Rank) {
		if r.Rank == 0 {
			r.Recv(5, func([]float32) { t.Error("stale waiter resumed") })
		}
		r.Finish(nil)
	})
	if c.pool != nil {
		t.Fatal("a run that left a waiter parked was recycled")
	}
	check("a run that left a waiter parked")
}

// TestUnconsumedWireNamesFirstLink: the counters detect the leftover,
// the fallback scan names the smallest (src, dst) link holding one.
func TestUnconsumedWireNamesFirstLink(t *testing.T) {
	c := testCluster(4)
	defer func() {
		if msg, _ := recover().(string); msg != "des: unconsumed message on link [1 3]" {
			t.Fatalf("unexpected panic: %q", msg)
		}
	}()
	c.Run(func(r *Rank) {
		switch r.Rank {
		case 2:
			r.Send(0, []float32{1})
		case 1:
			r.Send(3, []float32{1})
		}
		r.Finish(nil)
	})
}

// TestScratch: a rank's scratch is its own, stays put for the whole
// run, and what a cold run was handed is the arena every later run of
// the shape is served from.
func TestScratch(t *testing.T) {
	c := testCluster(4)
	var firstRun [4]*float32
	body := func(r *Rank) {
		a := r.Scratch(8)
		b := r.Scratch(8)
		for i := range a {
			a[i], b[i] = float32(r.Rank), float32(-r.Rank)
		}
		firstRun[r.Rank] = &a[0]
		r.Send((r.Rank+1)%4, a)
		r.Recv((r.Rank+3)%4, func(in []float32) {
			for i := range in {
				if in[i] != float32((r.Rank+3)%4) || a[i] != float32(r.Rank) || b[i] != float32(-r.Rank) {
					t.Errorf("rank %d: scratch overlapped (in %v a %v b %v)", r.Rank, in, a, b)
					break
				}
			}
			r.Finish(nil)
		})
	}
	c.Run(body)
	cold := firstRun
	c.Run(body)
	if cold != firstRun {
		t.Fatal("the warm run did not reuse the cold run's scratch")
	}
}
