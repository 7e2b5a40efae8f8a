package simnet

import (
	"fmt"
	"testing"

	"swcaffe/internal/topology"
)

func twoNodes() *Cluster {
	net := topology.Sunway()
	return NewCluster(net, topology.AdjacentMapping{Q: net.SupernodeSize}, 2)
}

func TestSendRecvPayload(t *testing.T) {
	cl := twoNodes()
	var got []float32
	res := cl.Run(func(n *Node) {
		if n.Rank == 0 {
			n.Send(1, []float32{1, 2, 3})
		} else {
			got = n.Recv(0)
		}
	})
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("payload corrupted: %v", got)
	}
	if got, want := res.Clocks[0], cl.Send(0, 1, 3, 0); got != want {
		t.Fatalf("sender clock %v, want Fabric.Send %v", got, want)
	}
	if got, want := res.Clocks[1], cl.Arrive(0, 1, 3, 0, 0); got != want || res.Time != want {
		t.Fatalf("receiver clock %v, makespan %v, want Fabric.Arrive %v", got, res.Time, want)
	}
}

func TestRecvWaitsForSender(t *testing.T) {
	cl := twoNodes()
	var recvClock float64
	const busy = 1.0 // the sender computes for 1 simulated second first
	cl.Run(func(n *Node) {
		if n.Rank == 0 {
			n.AdvanceClock(busy)
			n.Send(1, []float32{1})
		} else {
			n.Recv(0)
			recvClock = n.Clock()
		}
	})
	if recvClock < busy {
		t.Fatalf("receiver finished at %g, before the sender was ready at %g", recvClock, busy)
	}
}

func TestSendRecvExchangeSymmetric(t *testing.T) {
	cl := twoNodes()
	clocks := make([]float64, 2)
	cl.Run(func(n *Node) {
		peer := 1 - n.Rank
		data := make([]float32, 1000)
		in := n.SendRecv(peer, data)
		if len(in) != 1000 {
			t.Errorf("exchange lost data")
		}
		clocks[n.Rank] = n.Clock()
	})
	if clocks[0] != clocks[1] {
		t.Fatalf("symmetric exchange should finish together: %g vs %g", clocks[0], clocks[1])
	}
}

func TestCrossSupernodeCostsMore(t *testing.T) {
	net := topology.Sunway()
	net.SupernodeSize = 2 // ranks 0,1 local; 2,3 in another supernode
	run := func(dst int) float64 {
		cl := NewCluster(net, topology.AdjacentMapping{Q: 2}, 4)
		return cl.Run(func(n *Node) {
			switch {
			case n.Rank == 0:
				n.Send(dst, make([]float32, 1<<16))
			case n.Rank == dst:
				n.Recv(0)
			}
		}).Time
	}
	local, remote := run(1), run(2)
	if remote <= local {
		t.Fatalf("cross-supernode message (%g) should cost more than local (%g)", remote, local)
	}
	// β2 = 4β1, so a big message is ~4x slower (α amortized away).
	if r := remote / local; r < 3 || r > 4.5 {
		t.Fatalf("over-subscription ratio %g, want ~4", r)
	}
}

func TestBytesPerElemScalesCost(t *testing.T) {
	run := func(bpe float64) float64 {
		cl := twoNodes()
		cl.BytesPerElem = bpe
		return cl.Run(func(n *Node) {
			if n.Rank == 0 {
				n.Send(1, make([]float32, 1<<16))
			} else {
				n.Recv(0)
			}
		}).Time
	}
	if t4, t4k := run(4), run(4096); t4k < 50*t4 {
		t.Fatalf("virtual payload scaling broken: %g vs %g", t4, t4k)
	}
}

func TestChargeReduceRates(t *testing.T) {
	net := topology.Sunway()
	mpe := NewCluster(net, topology.AdjacentMapping{Q: 256}, 1)
	cpe := NewCluster(net, topology.AdjacentMapping{Q: 256}, 1)
	cpe.ReduceOnCPE = true
	var tMPE, tCPE float64
	mpe.Run(func(n *Node) { n.ChargeReduce(1 << 20); tMPE = n.Clock() })
	cpe.Run(func(n *Node) { n.ChargeReduce(1 << 20); tCPE = n.Clock() })
	if tCPE >= tMPE {
		t.Fatalf("CPE reduction (%g) must beat MPE (%g)", tCPE, tMPE)
	}
}

func TestUnconsumedMessagePanics(t *testing.T) {
	cl := twoNodes()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic about the unconsumed message")
		}
	}()
	// Rank 1 never receives; the post-run drain check must object.
	cl.Run(func(n *Node) {
		if n.Rank == 0 {
			n.Send(1, []float32{1})
		}
	})
}

func TestMakespanIsMaxClock(t *testing.T) {
	net := topology.Sunway()
	cl := NewCluster(net, topology.AdjacentMapping{Q: 256}, 4)
	res := cl.Run(func(n *Node) {
		n.AdvanceClock(float64(n.Rank))
	})
	if res.Time != 3 {
		t.Fatalf("makespan %g, want 3", res.Time)
	}
	for r, c := range res.Clocks {
		if c != float64(r) {
			t.Fatalf("clock[%d] = %g", r, c)
		}
	}
}

// TestPanicDoesNotPoisonNextRun is the failure-injection regression
// for the Run failure path: a rank that panics mid-collective leaves
// buffered wires (and peers blocked in Recv) behind, and before the
// per-Run inbox rebuild those stale messages were delivered into the
// next Run on the same cluster, silently corrupting its numerics.
func TestPanicDoesNotPoisonNextRun(t *testing.T) {
	net := topology.Sunway()
	cl := NewCluster(net, topology.AdjacentMapping{Q: net.SupernodeSize}, 4)

	// Run 1: every surviving rank posts a poison payload toward rank 0,
	// then rank 0 panics without receiving any of them. The sends land
	// in the (buffered) wires and go stale.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected rank panic was not re-raised")
			}
		}()
		cl.Run(func(n *Node) {
			if n.Rank == 0 {
				panic("injected fault")
			}
			n.Send(0, []float32{-9999, -9999})
		})
	}()

	// Run 2: a clean exchange on the same cluster. Rank 0 must see the
	// fresh payloads, not the stale poison from the failed Run.
	for trial := 0; trial < 2; trial++ {
		var got [4][]float32
		cl.Run(func(n *Node) {
			if n.Rank == 0 {
				for peer := 1; peer < 4; peer++ {
					got[peer] = n.Recv(peer)
				}
			} else {
				n.Send(0, []float32{float32(n.Rank), float32(trial)})
			}
		})
		for peer := 1; peer < 4; peer++ {
			if len(got[peer]) != 2 || got[peer][0] != float32(peer) || got[peer][1] != float32(trial) {
				t.Fatalf("trial %d: rank 0 received stale/corrupt payload from %d: %v", trial, peer, got[peer])
			}
		}
	}

	// The same isolation holds for what a run returns. A rank's result
	// is its arena memory (Scratch): a warm clean run hands back the
	// previous run's, a run after a failure never the failed run's — so
	// a rank the failure stranded can finish and write its result as
	// late as it likes without reaching a later run's outputs.
	result := func(n *Node) []float32 {
		out := n.Scratch(2)
		out[0], out[1] = float32(n.Rank), 1
		return out
	}
	_, outs := cl.RunGather(result)
	first := &outs[1][0]
	if _, outs = cl.RunGather(result); &outs[1][0] != first {
		t.Fatal("a warm clean run did not reuse the previous run's result memory")
	}

	stranded, release, wrote := make(chan []float32, 1), make(chan struct{}), make(chan struct{})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected rank panic was not re-raised")
			}
		}()
		cl.RunGather(func(n *Node) []float32 {
			out := result(n)
			switch n.Rank {
			case 0:
				stranded <- <-stranded // rank 1 holds its result
				panic("injected fault")
			case 1:
				stranded <- out
				<-release // outlives the re-raise
				out[0], out[1] = -9999, -9999
				close(wrote)
			}
			return out
		})
	}()
	late := <-stranded
	_, outs = cl.RunGather(result)
	if &outs[1][0] == &late[0] {
		t.Fatal("the run after a rank panic reused the failed run's result memory")
	}
	close(release)
	<-wrote
	for r, out := range outs {
		if out[0] != float32(r) || out[1] != 1 {
			t.Fatalf("a stranded rank's late write reached the next run's outputs: rank %d = %v", r, out)
		}
	}
}

// TestPanicWithBlockedReceiverDoesNotPoisonNextRun injects the other
// failure shape: a peer still parked inside Recv when a rank panics.
// The stranded goroutine must stay bound to the failed Run's channels
// and never intercept a message of a later Run.
func TestPanicWithBlockedReceiverDoesNotPoisonNextRun(t *testing.T) {
	net := topology.Sunway()
	cl := NewCluster(net, topology.AdjacentMapping{Q: net.SupernodeSize}, 2)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected rank panic was not re-raised")
			}
		}()
		cl.Run(func(n *Node) {
			if n.Rank == 0 {
				panic("injected fault")
			}
			n.Recv(0) // blocks forever: rank 0 never sends
		})
	}()

	// The stranded rank-1 goroutine from Run 1 is still blocked in Recv
	// on the dead Run's channel; this send must reach the new Run's
	// rank 1, not the ghost.
	var got []float32
	cl.Run(func(n *Node) {
		if n.Rank == 0 {
			n.Send(1, []float32{42})
		} else {
			got = n.Recv(0)
		}
	})
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("message stolen by a stranded receiver from the failed run: %v", got)
	}

	// The collective numerics stay clean too.
	sums := make([]float32, 2)
	cl.Run(func(n *Node) {
		out := n.SendRecv(1-n.Rank, []float32{float32(n.Rank + 1)})
		sums[n.Rank] = float32(n.Rank+1) + out[0]
	})
	if sums[0] != 3 || sums[1] != 3 {
		t.Fatalf("post-failure collective corrupted: %v", sums)
	}
}

func TestSelfSendPanics(t *testing.T) {
	cl := twoNodes()
	defer func() {
		if recover() == nil {
			t.Fatal("expected self-send panic")
		}
	}()
	cl.Run(func(n *Node) {
		if n.Rank == 0 {
			n.Send(0, []float32{1})
		}
	})
}

// TestPeerOutOfRangePanics: a peer outside [0, P) is refused by name on
// every call, before it can index a table or block on a link no rank
// sends on.
func TestPeerOutOfRangePanics(t *testing.T) {
	const p = 4
	calls := []struct {
		op   string
		call func(n *Node, peer int)
	}{
		{"send to", func(n *Node, peer int) { n.Send(peer, []float32{1}) }},
		{"receive from", func(n *Node, peer int) { n.Recv(peer) }},
		{"sendrecv with", func(n *Node, peer int) { n.SendRecv(peer, []float32{1}) }},
	}
	for _, c := range calls {
		for _, peer := range []int{-1, p} {
			func() {
				want := fmt.Sprintf("simnet: rank 2: %s peer %d outside [0, %d)", c.op, peer, p)
				defer func() {
					if np, ok := recover().(NodePanic); !ok || np.FailedRank() != 2 || np.Value != want {
						t.Fatalf("%s %d: got %v, want a NodePanic %q", c.op, peer, np, want)
					}
				}()
				NewCluster(topology.Sunway(), topology.AdjacentMapping{Q: 2}, p).Run(func(n *Node) {
					if n.Rank == 2 {
						c.call(n, peer)
					}
				})
			}()
		}
	}
}

// TestCrossTrafficCensus: Result must report the message count and the
// cross-supernode share, with CrossBytes scaled by BytesPerElem.
func TestCrossTrafficCensus(t *testing.T) {
	net := topology.Sunway()
	net.SupernodeSize = 2
	cl := NewCluster(net, topology.AdjacentMapping{Q: 2}, 4)
	cl.BytesPerElem = 100
	res := cl.Run(func(n *Node) {
		switch n.Rank {
		case 0:
			n.Send(1, make([]float32, 3)) // intra
			n.Send(2, make([]float32, 5)) // cross
		case 1:
			n.Recv(0)
		case 2:
			n.Recv(0)
		}
	})
	if res.Msgs != 2 || res.CrossMsgs != 1 || res.CrossBytes != 500 {
		t.Fatalf("census = %d msgs / %d cross / %d bytes, want 2/1/500", res.Msgs, res.CrossMsgs, res.CrossBytes)
	}
	// Counters reset between runs on the pooled state.
	res = cl.Run(func(n *Node) {})
	if res.Msgs != 0 || res.CrossMsgs != 0 || res.CrossBytes != 0 {
		t.Fatalf("census not reset: %+v", res)
	}
}

// TestScratch: a rank's scratch is its own and holds for the whole run;
// what a cold run was handed is the arena every later run of the shape
// is served from; and a failed run's arenas are abandoned with its
// state, so a rank it stranded can go on writing its own while the
// next run stages into fresh ones.
func TestScratch(t *testing.T) {
	net := topology.Sunway()
	cl := NewCluster(net, topology.AdjacentMapping{Q: net.SupernodeSize}, 3)
	var base [3]*float32
	ring := func(n *Node) {
		a := n.Scratch(4)
		b := n.Scratch(4)
		for i := range a {
			a[i], b[i] = float32(n.Rank), float32(-n.Rank)
		}
		base[n.Rank] = &a[0]
		n.Send((n.Rank+1)%3, a)
		in := n.Recv((n.Rank + 2) % 3)
		for i := range in {
			if in[i] != float32((n.Rank+2)%3) || a[i] != float32(n.Rank) || b[i] != float32(-n.Rank) {
				t.Errorf("rank %d: scratch overlapped (in %v a %v b %v)", n.Rank, in, a, b)
				break
			}
		}
	}
	cl.Run(ring)
	cold := base
	cl.Run(ring)
	if cold != base {
		t.Fatal("the warm run did not reuse the cold run's scratch")
	}

	// Rank 1 stages, then blocks forever on the rank that panics.
	staged := make(chan []float32, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected rank panic was not re-raised")
			}
		}()
		cl.Run(func(n *Node) {
			switch n.Rank {
			case 0:
				staged <- <-staged // wait for rank 1 to stage
				panic("injected fault")
			case 1:
				staged <- n.Scratch(4)
				n.Recv(0)
			}
		})
	}()
	stranded := <-staged
	cl.Run(ring)
	if &stranded[0] == base[1] {
		t.Fatal("the run after a failure reused the failed run's scratch")
	}
}
