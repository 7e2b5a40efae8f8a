package allreduce

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"swcaffe/internal/des"
	"swcaffe/internal/detrand"
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

var propertySeed = flag.Uint64("property-seed", 20260928, "base seed of TestCollectiveProperty's generated cases")

const propertyCases = 48

// outcome is everything a collective run must reproduce: each rank's
// output (copied out — RunGather's slice is the cluster's) and the
// simulated statistics.
type outcome struct {
	outs   [][]float32
	clocks []float64
	time   float64
	census [3]int64
}

func (o outcome) diff(want outcome, stats bool) string {
	for r := range want.outs {
		if len(o.outs[r]) != len(want.outs[r]) {
			return fmt.Sprintf("rank %d: %d elems, want %d", r, len(o.outs[r]), len(want.outs[r]))
		}
		for i := range want.outs[r] {
			if got, w := math.Float32bits(o.outs[r][i]), math.Float32bits(want.outs[r][i]); got != w {
				return fmt.Sprintf("rank %d elem %d: %#08x, want %#08x", r, i, got, w)
			}
		}
	}
	if !stats {
		return ""
	}
	for r := range want.clocks {
		if o.clocks[r] != want.clocks[r] {
			return fmt.Sprintf("rank %d clock %v, want %v", r, o.clocks[r], want.clocks[r])
		}
	}
	if o.time != want.time || o.census != want.census {
		return fmt.Sprintf("makespan %v census %v, want %v %v", o.time, o.census, want.time, want.census)
	}
	return ""
}

func copyOuts(outs [][]float32) [][]float32 {
	c := make([][]float32, len(outs))
	for r, o := range outs {
		c[r] = append([]float32{}, o...)
	}
	return c
}

// propertyCase is one generated (shape, payload, segment) point. The
// segment [lo, hi) of the total-element vector is what every rank
// reduces: chunk-aligned for the ring (p chunks) and the hierarchical
// schedule (MinSize chunks), anywhere for the element-uniform two.
type propertyCase struct {
	seed   uint64
	p, q   int
	m      topology.Mapping
	total  int
	inputs [][]float32
}

func genCase(seed uint64) propertyCase {
	rng := detrand.New(seed)
	c := propertyCase{seed: seed, p: 1 + rng.Intn(40), q: 1 + rng.Intn(9)}
	c.m = topology.AdjacentMapping{Q: c.q}
	if rng.Intn(2) == 1 {
		c.m = topology.RoundRobinMapping{Q: c.q}
	}
	switch rng.Intn(4) {
	case 0: // empty
	case 1: // shorter than the rank count
		c.total = rng.Intn(c.p)
	case 2: // ragged
		c.total = c.p*(1+rng.Intn(6)) + rng.Intn(c.p)
	case 3: // a multiple of p
		c.total = c.p * (1 + rng.Intn(6))
	}
	c.inputs = make([][]float32, c.p)
	for r := range c.inputs {
		c.inputs[r] = make([]float32, c.total)
		for i := range c.inputs[r] {
			c.inputs[r][i] = float32(rng.Intn(17) - 8)
		}
	}
	return c
}

// segmentOn picks two bounds of the k-chunk partition (k = 0: any two
// offsets) in order.
func (c propertyCase) segmentOn(rng *detrand.RNG, k int) (lo, hi int) {
	pick := func() int { return rng.Intn(c.total + 1) }
	if k > 0 {
		bounds := ChunkBounds(c.total, k)
		pick = func() int { return bounds[rng.Intn(len(bounds))] }
	}
	lo, hi = pick(), pick()
	if rng.Intn(3) == 0 {
		lo, hi = 0, c.total // the one-shot form
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

// fault says where the victim rank dies: before it communicates (peers
// are left parked on it, wires queued for it) or as it finishes.
type fault struct {
	victim int
	early  bool
}

var noFault = fault{victim: -1}

// runSim runs body on cl, with f's victim panicking, and returns the
// outcome or the recovered panic.
func runSim(cl *simnet.Cluster, f fault, body func(n *simnet.Node) []float32) (o outcome, failed any) {
	defer func() { failed = recover() }()
	res, outs := cl.RunGather(func(n *simnet.Node) []float32 {
		if n.Rank == f.victim && f.early {
			panic("boom")
		}
		out := body(n)
		if n.Rank == f.victim {
			panic("boom")
		}
		return out
	})
	return outcome{copyOuts(outs), slices.Clone(res.Clocks), res.Time, [3]int64{res.Msgs, res.CrossMsgs, res.CrossBytes}}, nil
}

func runDES(cl *des.Cluster, run *DESRun, f fault, body func(r *des.Rank, k func(*des.Rank, []float32))) (o outcome, failed any) {
	defer func() { failed = recover() }()
	res, outs := run.Gather(cl, Pool{}, func(r *des.Rank) {
		if r.Rank == f.victim && f.early {
			panic("boom")
		}
		k := (*des.Rank).Finish
		if r.Rank == f.victim {
			k = func(*des.Rank, []float32) { panic("boom") }
		}
		body(r, k)
	})
	return outcome{copyOuts(outs), slices.Clone(res.Clocks), res.Time, [3]int64{res.Msgs, res.CrossMsgs, res.CrossBytes}}, nil
}

// walkSchedule steps the p cursors of one call against per-link FIFO
// queues of payload lengths — no payloads, no backend — and checks the
// schedule as data: every message is consumed by exactly one receive on
// the peer it names, with the length that receive's landing range
// expects; a full-duplex exchange is full-duplex on both ends; every
// rank runs to the end and no link is left holding a message. It also
// checks the payload-ownership rule every send by reference rests on
// (see the package comment), with vector clocks: a rank writes a range
// it sent only after it has heard, directly or through a chain of
// messages, from a point after the peer took it. And it checks the
// first-touch rule a one-shot call rests on (see round), with each
// rank's set of written result elements, a zeroed pad included: the
// input is read — by a send, a load or a fresh reduce's addend — only
// where the result is still untouched, the result only where it has
// been written, and every element of [0, n) is written by the end. It
// returns the census a run of the schedule must report (default 4-byte
// elements).
func walkSchedule(sched Schedule, lay *topology.Layout, p, lo, n, total int) (census [3]int64, bad string) {
	// loan is a range a rank sent — every send is one, there is no
	// vector nobody writes (in place the input is the result): the
	// peer's from the post until the sender has seen the peer's clock
	// reach taken, the value it had once the peer consumed the message.
	type loan struct {
		to    int
		sp    span
		taken int32 // 0: not consumed yet
	}
	type msg struct {
		elems  int
		paired bool
		seen   []int32 // the sender's vector clock at the post
		loan   *loan
	}
	links := make(map[[2]int][]msg)
	ranks := make([]struct {
		c       cursor
		rd      round
		waiting bool
		done    bool
		seen    []int32 // vector clock: seen[q] is the latest event of q this rank has heard of
		loans   []*loan
		written []bool // the result elements the rank has written
	}, p)
	for r := range ranks {
		ranks[r].c = newCursor(sched, r, p, lay, lo, n, total)
		ranks[r].seen = make([]int32, p)
		ranks[r].written = make([]bool, ranks[r].c.resultLen(n))
	}
	// reads reports what is wrong with rank r reading s.
	reads := func(r int, s span) string {
		written := ranks[r].written
		if s.len() == 0 || s.vec == work {
			return ""
		}
		if s.vec == input && s.hi > n || s.lo < 0 || s.hi > len(written) {
			return fmt.Sprintf("rank %d reads %+v, outside a %d-element input and a %d-element result", r, s, n, len(written))
		}
		for x := s.lo; x < s.hi; x++ {
			if s.vec == input && written[x] {
				return fmt.Sprintf("rank %d reads %+v, but the result has written element %d", r, s, x)
			}
			if s.vec == result && !written[x] {
				return fmt.Sprintf("rank %d reads %+v before writing element %d", r, s, x)
			}
		}
		return ""
	}
	// writes reports the loan, if any, that rank r's write of wr breaks,
	// and marks what it writes of the result.
	writes := func(r int, wr span) string {
		w := &ranks[r]
		if wr.vec == input {
			return fmt.Sprintf("rank %d writes the input: %+v", r, wr)
		}
		if wr.vec == result {
			if wr.lo < 0 || wr.hi > len(w.written) {
				return fmt.Sprintf("rank %d writes %+v, outside its %d-element result", r, wr, len(w.written))
			}
			for x := wr.lo; x < wr.hi; x++ {
				w.written[x] = true
			}
		}
		out := w.loans[:0]
		for _, l := range w.loans {
			if l.taken != 0 && w.seen[l.to] >= l.taken {
				continue // back with the sender for good
			}
			if l.sp.vec == wr.vec && l.sp.lo < wr.hi && wr.lo < l.sp.hi {
				return fmt.Sprintf("rank %d writes %+v while rank %d still owns %+v of it", r, wr, l.to, l.sp)
			}
			out = append(out, l)
		}
		w.loans = out
		return ""
	}
	for progress := true; progress; {
		progress = false
		for r := range ranks {
			w := &ranks[r]
			for !w.done {
				rd := &w.rd
				if !w.waiting {
					if !w.c.next(rd) {
						w.done = true
						break
					}
					progress = true
					w.seen[r]++
					comm := rd.sendTo >= 0 || rd.recvFrom >= 0
					if (rd.phase != noPhase || rd.local) && comm {
						return census, fmt.Sprintf("rank %d: a phase or local round communicates: %+v", r, *rd)
					}
					if rd.paired && rd.sendTo != rd.recvFrom {
						return census, fmt.Sprintf("rank %d: exchange with two peers: %+v", r, *rd)
					}
					if rd.fresh && (!rd.reduce || rd.recv.vec != result) {
						return census, fmt.Sprintf("rank %d: a fresh round that reduces nothing into the result: %+v", r, *rd)
					}
					if rd.local || rd.sendTo >= 0 {
						if bad := reads(r, rd.send); bad != "" {
							return census, bad
						}
					}
					if rd.local {
						if bad := writes(r, rd.recv); bad != "" {
							return census, bad
						}
					}
					if rd.sendTo >= 0 {
						if rd.sendTo == r || rd.sendTo >= p {
							return census, fmt.Sprintf("rank %d: sends to %d", r, rd.sendTo)
						}
						m := msg{elems: rd.send.len(), paired: rd.paired, seen: append([]int32(nil), w.seen...)}
						if rd.send.len() > 0 {
							sp := rd.send
							if sp.vec == input {
								sp.vec = result
							}
							m.loan = &loan{to: rd.sendTo, sp: sp}
							w.loans = append(w.loans, m.loan)
						}
						key := [2]int{r, rd.sendTo}
						links[key] = append(links[key], m)
						census[0]++
						if !lay.Same(r, rd.sendTo) {
							census[1]++
							census[2] += int64(rd.send.len()) * 4
						}
					}
					w.waiting = rd.recvFrom >= 0
				}
				if w.waiting {
					key := [2]int{rd.recvFrom, r}
					if len(links[key]) == 0 {
						break // the peer has not posted yet
					}
					m := links[key][0]
					links[key] = links[key][1:]
					if m.elems != rd.recv.len() || m.paired != rd.paired {
						return census, fmt.Sprintf("rank %d: receive %+v consumed message %+v from %d", r, *rd, m, rd.recvFrom)
					}
					// Taking the message is an event of its own: what this
					// rank posted earlier in the same exchange predates it.
					w.seen[r]++
					if m.loan != nil {
						m.loan.taken = w.seen[r]
					}
					for q, k := range m.seen {
						w.seen[q] = max(w.seen[q], k)
					}
					if rd.reduce {
						addend := rd.recv
						if rd.fresh {
							addend = rd.recv.untouched()
						}
						if bad := reads(r, addend); bad != "" {
							return census, bad
						}
					}
					if bad := writes(r, rd.recv); bad != "" {
						return census, bad
					}
					w.waiting, progress = false, true
				}
			}
		}
	}
	for r := range ranks {
		if !ranks[r].done {
			return census, fmt.Sprintf("deadlock: rank %d waits on %d", r, ranks[r].rd.recvFrom)
		}
		for x, ok := range ranks[r].written[:n] {
			if !ok {
				return census, fmt.Sprintf("rank %d finishes without writing result element %d", r, x)
			}
		}
	}
	for key, q := range links {
		if len(q) != 0 {
			return census, fmt.Sprintf("link %v left holding %d messages", key, len(q))
		}
	}
	return census, ""
}

// TestCollectiveProperty generates cluster shapes, mappings, lengths
// and segments and checks, for every algorithm on both backends: the
// output is the exact sum (small integers, so every association order
// agrees), the schedule walked as data (see walkSchedule) is well-formed
// and predicts the run's census, and the DES run reproduces the
// goroutine run's clocks, makespan and census. Every run reduces a
// fresh copy of the inputs in place, with the capacity flat RHD pads
// into; the one-shot form over the inputs themselves must then give the
// same bits, clocks and census and leave the inputs untouched. Each
// case then runs twice more on one cluster — recycled scratch, pooled
// links — and once after a recovered rank panic, and must reproduce the
// fresh cluster's outcome every time. Replay a failure with
// -property-seed.
func TestCollectiveProperty(t *testing.T) {
	for i := 0; i < propertyCases; i++ {
		c := genCase(*propertySeed + uint64(i))
		net := sunwayQ(c.q)
		rng := detrand.New(c.seed ^ 0x5eed)
		pristine := copyOuts(c.inputs)
		for _, name := range Names() {
			k := 0
			switch name {
			case NameRing:
				k = c.p
			case NameHierarchical:
				k = topology.MinGroupSize(c.m, c.p)
			}
			lo, hi := c.segmentOn(rng, k)
			f := fault{victim: rng.Intn(c.p), early: rng.Intn(2) == 0}
			label := fmt.Sprintf("seed %d (-property-seed %d, case %d): %s p=%d q=%d %s total=%d seg=[%d,%d) fault=%+v",
				c.seed, *propertySeed, i, name, c.p, c.q, c.m.Name(), c.total, lo, hi, f)

			sched, _ := ScheduleByName(name)
			// Each in-place run gets its own copy: a run consumes it.
			inPlaceSim := func(cl *simnet.Cluster, f fault) (outcome, any) {
				data := padded(c.inputs)
				return runSim(cl, f, func(n *simnet.Node) []float32 {
					return sched.Run(n, data[n.Rank][lo:hi], lo, c.total, nil)
				})
			}
			inPlaceDES := func(cl *des.Cluster, run *DESRun, f fault) (outcome, any) {
				data := padded(c.inputs)
				return runDES(cl, run, f, func(r *des.Rank, k func(*des.Rank, []float32)) {
					sched.RunDES(run, r, data[r.Rank][lo:hi], lo, c.total, nil, k)
				})
			}

			sum := make([]float32, hi-lo)
			for _, in := range c.inputs {
				for x, v := range in[lo:hi] {
					sum[x] += v
				}
			}
			want := outcome{outs: make([][]float32, c.p)}
			for r := range want.outs {
				want.outs[r] = sum
			}

			fresh, failed := inPlaceSim(simnet.NewCluster(net, c.m, c.p), noFault)
			if failed != nil {
				t.Fatalf("%s: goroutine run panicked: %v", label, failed)
			}
			if d := fresh.diff(want, false); d != "" {
				t.Fatalf("%s: goroutine vs reference sum: %s", label, d)
			}
			if census, bad := walkSchedule(sched, topology.NewLayout(c.m, c.p), c.p, lo, hi-lo, c.total); bad != "" {
				t.Fatalf("%s: schedule walk: %s", label, bad)
			} else if census != fresh.census {
				t.Fatalf("%s: schedule walk counts census %v, the live run %v", label, census, fresh.census)
			}
			freshDES, failed := inPlaceDES(des.NewCluster(net, c.m, c.p), NewDESRun(c.p, c.total), noFault)
			if failed != nil {
				t.Fatalf("%s: DES run panicked: %v", label, failed)
			}
			if d := freshDES.diff(fresh, true); d != "" {
				t.Fatalf("%s: DES vs goroutine: %s", label, d)
			}

			oneShot, failed := runSim(simnet.NewCluster(net, c.m, c.p), noFault,
				func(n *simnet.Node) []float32 { return sched.oneShot(n, c.inputs[n.Rank][lo:hi], lo, c.total) })
			if failed != nil {
				t.Fatalf("%s: one-shot run panicked: %v", label, failed)
			}
			if d := oneShot.diff(fresh, true); d != "" {
				t.Fatalf("%s: one-shot vs in place: %s", label, d)
			}
			for r := range pristine {
				for x := range pristine[r] {
					if c.inputs[r][x] != pristine[r][x] {
						t.Fatalf("%s: the one-shot form modified the input of rank %d at %d", label, r, x)
					}
				}
			}

			scl, dcl, run := simnet.NewCluster(net, c.m, c.p), des.NewCluster(net, c.m, c.p), NewDESRun(c.p, c.total)
			for _, step := range []struct {
				what string
				f    fault
			}{{"first run", noFault}, {"warm run", noFault}, {"faulted run", f}, {"run after the fault", noFault}} {
				got, failed := inPlaceSim(scl, step.f)
				gotDES, failedDES := inPlaceDES(dcl, run, step.f)
				if step.f.victim >= 0 {
					if np, ok := failed.(simnet.NodePanic); !ok || np.FailedRank() != f.victim {
						t.Fatalf("%s: goroutine %s: recovered %v, want NodePanic on rank %d", label, step.what, failed, f.victim)
					}
					if rp, ok := failedDES.(des.RankPanic); !ok || rp.FailedRank() != f.victim {
						t.Fatalf("%s: DES %s: recovered %v, want RankPanic on rank %d", label, step.what, failedDES, f.victim)
					}
					continue
				}
				if failed != nil || failedDES != nil {
					t.Fatalf("%s: %s panicked: goroutine %v, DES %v", label, step.what, failed, failedDES)
				}
				if d := got.diff(fresh, true); d != "" {
					t.Fatalf("%s: goroutine %s vs fresh cluster: %s", label, step.what, d)
				}
				if d := gotDES.diff(fresh, true); d != "" {
					t.Fatalf("%s: DES %s vs fresh cluster: %s", label, step.what, d)
				}
			}
		}
	}
}

// TestInPlaceShortCapacityPanics: a core rank of flat RHD pads its
// vector inside the vector's own capacity; a caller that hands over
// less has broken the contract of Schedule.Run and is told so, on
// either backend, before a message moves.
func TestInPlaceShortCapacityPanics(t *testing.T) {
	const p, n = 3, 5 // the core of 2 pads 5 elements to 6
	net, m := sunwayQ(4), topology.AdjacentMapping{Q: 4}
	const want = "in-place vector of 5 elements has capacity 5, the schedule pads it to 6"
	inputs := intInputs(p, n)
	_, failed := runSim(simnet.NewCluster(net, m, p), noFault,
		func(nd *simnet.Node) []float32 { return schedRHD.Run(nd, inputs[nd.Rank], 0, n, nil) })
	if np, ok := failed.(simnet.NodePanic); !ok || !strings.Contains(fmt.Sprint(np.Value), want) {
		t.Errorf("goroutine backend: recovered %v, want a NodePanic saying %q", failed, want)
	}
	run := NewDESRun(p, n)
	_, failed = runDES(des.NewCluster(net, m, p), run, noFault,
		func(r *des.Rank, k func(*des.Rank, []float32)) { schedRHD.RunDES(run, r, inputs[r.Rank], 0, n, nil, k) })
	if rp, ok := failed.(des.RankPanic); !ok || !strings.Contains(fmt.Sprint(rp.Value), want) {
		t.Errorf("DES backend: recovered %v, want a RankPanic saying %q", failed, want)
	}
}
