package des

import (
	"fmt"
	"strings"
	"testing"

	"swcaffe/internal/topology"
)

func testCluster(p int) *Cluster {
	net := topology.Sunway()
	net.SupernodeSize = 4
	return NewCluster(net, topology.AdjacentMapping{Q: 4}, p)
}

// TestPingPongClocks pins the Send/Recv clock arithmetic to the
// pricer: in a two-rank ping-pong every leg lands at Fabric.Arrive of
// the receiver's clock and the send time, and every send leaves its
// sender busy until Fabric.Send.
func TestPingPongClocks(t *testing.T) {
	c := testCluster(2)
	payload := []float32{1, 2, 3, 4}
	n := len(payload)

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

	// Rank 0 sends at 0; rank 1's receive lands at Arrive(0, 0) and its
	// echo leaves at that time. Rank 0's receive starts from its own
	// clock after the send.
	ping := c.Arrive(0, 1, n, 0, 0)
	if got, want := res.Clocks[1], c.Send(1, 0, n, ping); got != want {
		t.Fatalf("rank 1 clock: got %v want %v", got, want)
	}
	if got, want := res.Clocks[0], c.Arrive(1, 0, n, c.Send(0, 1, n, 0), ping); got != want {
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
// raised inside queued continuations, not just the seed call.
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

// TestReadyQueueFIFO: the ready ring pops in push order across a
// wrap-around of its buffer and a growth that unrolls one.
func TestReadyQueueFIFO(t *testing.T) {
	var q ready
	next, want := 0, 0
	push := func(n int) {
		for ; n > 0; n-- {
			q.push(event{rank: next})
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			if got := q.pop().rank; got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	push(10)
	pop(6)
	push(12) // wraps: the first buffer holds 16
	if len(q.buf) != 16 || q.head+q.n <= len(q.buf) {
		t.Fatalf("buffer %d head %d n %d: no wrap-around to test", len(q.buf), q.head, q.n)
	}
	push(5) // grows from a wrapped buffer
	if len(q.buf) != 32 {
		t.Fatalf("buffer %d after growth, want 32", len(q.buf))
	}
	pop(next - want)
	if q.n != 0 {
		t.Fatalf("%d events left", q.n)
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

// TestSecondReceivePanics: a rank holds at most one parked receive,
// whichever link a second would wait on, and the panic names both.
func TestSecondReceivePanics(t *testing.T) {
	c := testCluster(3)
	defer func() {
		rp, ok := recover().(RankPanic)
		if !ok || rp.FailedRank() != 1 || !strings.Contains(rp.Error(), "second receiver") ||
			!strings.Contains(rp.Error(), "[2 1]") || !strings.Contains(rp.Error(), "[0 1]") {
			t.Fatalf("expected a second-receiver panic naming [0 1] and [2 1], got %v", rp)
		}
	}()
	c.Run(func(r *Rank) {
		if r.Rank == 1 {
			r.Recv(0, func([]float32) {})
			r.Recv(2, func([]float32) {})
			return
		}
		r.Finish(nil)
	})
}

// TestPeerOutOfRangePanics: a peer outside [0, P) is refused by name on
// every call, before it can reach the engine's per-rank tables.
func TestPeerOutOfRangePanics(t *testing.T) {
	const p = 4
	calls := []struct {
		op   string
		call func(r *Rank, peer int)
	}{
		{"send to", func(r *Rank, peer int) { r.Send(peer, []float32{1}) }},
		{"receive from", func(r *Rank, peer int) { r.Recv(peer, func([]float32) {}) }},
		{"sendrecv with", func(r *Rank, peer int) { r.SendRecv(peer, []float32{1}, func([]float32) {}) }},
	}
	for _, c := range calls {
		for _, peer := range []int{-1, p} {
			func() {
				want := fmt.Sprintf("des: rank 2: %s peer %d outside [0, %d)", c.op, peer, p)
				defer func() {
					if rp, ok := recover().(RankPanic); !ok || rp.FailedRank() != 2 || rp.Value != want {
						t.Fatalf("%s %d: got %v, want a RankPanic %q", c.op, peer, rp, want)
					}
				}()
				testCluster(p).Run(func(r *Rank) {
					if r.Rank == 2 {
						c.call(r, peer)
					}
					r.Finish(nil)
				})
			}()
		}
	}
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
