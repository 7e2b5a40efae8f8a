package allreduce

import (
	"fmt"

	"swcaffe/internal/des"
	"swcaffe/internal/f32"
	"swcaffe/internal/simnet"
)

// The two interpreters of a schedule cursor. They own every side effect
// of a collective — the writes to the result and scratch, the messages,
// the arithmetic, the reduction charge, the phase clocks and hook — and
// are the only callers of Send, Recv, SendRecv and ChargeReduce in this
// package. Both execute a round the same way, in the same order; they
// differ only in how a receive returns: the blocking one waits for it,
// the event one parks the call and is resumed with the payload.

// frame holds the vectors of one call (see vector). The input is the
// caller's vector and is only read. The result is the same vector in
// place, or memory from the rank's arena (Scratch) in a one-shot call,
// which the cursor's first touches fill from the input; the work
// vector, too, comes from the arena.
type frame struct {
	vecs [3][]float32
	n    int
	clk  *PhaseClocks // the caller's, or nil
}

// newFrame starts a call that reduces in into res, worked at resLen
// elements; res is in itself for a call in place. The pad past len(in)
// lies inside res's capacity, and the cursor's load zeroes it. A caller
// that hands over less capacity than the schedule's pad needs has
// broken the in-place contract (see Schedule.Run).
func newFrame(in, res []float32, resLen int, clk *PhaseClocks) frame {
	if cap(res) < resLen {
		panic(fmt.Sprintf("allreduce: in-place vector of %d elements has capacity %d, the schedule pads it to %d",
			len(res), cap(res), resLen))
	}
	f := frame{n: len(in), clk: clk}
	f.vecs[result], f.vecs[input] = res[:resLen], in
	return f
}

// out is the rank's result, without the pad.
func (f *frame) out() []float32 { return f.vecs[result][:f.n:f.n] }

func (f *frame) at(s span) []float32 { return f.vecs[s.vec][s.lo:s.hi] }

// enter marks the rank crossing a phase boundary at clock: in the
// caller's phase clocks, if any, and at the tests' fault seam.
func (f *frame) enter(rank int, clock float64, phase HierPhase) {
	if f.clk != nil {
		f.clk[phase] = clock
	}
	hierPhase(rank, clock, phase)
}

// scratchNeed is how many floats of the rank's scratch rd takes: the
// work vector a local load fills.
func (rd *round) scratchNeed() int {
	if rd.local && rd.recv.vec == work {
		return rd.recv.hi
	}
	return 0
}

// prepare does rd's local part, given the scratch it needs, and returns
// the payload to send (nil for a round that sends nothing).
func (f *frame) prepare(rd *round, scratch []float32) []float32 {
	switch {
	case rd.local:
		if rd.recv.vec == work {
			f.vecs[work] = scratch
		}
		dst, src := f.at(rd.recv), f.at(rd.send)
		if len(src) > 0 && &src[0] != &dst[0] { // in place, a load of the input is onto itself
			copy(dst, src)
		}
		clear(dst[len(src):])
		return nil
	case rd.sendTo < 0:
		return nil
	}
	return f.at(rd.send)
}

// land puts a received payload where rd says and reports whether it was
// a reduction, to be charged. The payload must have exactly
// rd.recv.len() elements (see round); one of any other length is a
// broken schedule, not something to truncate or pad. A fresh reduce
// adds the payload to the input's range: the result's is untouched.
func (f *frame) land(rd *round, in []float32) bool {
	dst := f.at(rd.recv)
	if len(in) != len(dst) {
		panic(fmt.Sprintf("allreduce: round %+v received %d elements, want recv.len() = %d", *rd, len(in), len(dst)))
	}
	if !rd.reduce {
		copy(dst, in)
		return false
	}
	a := dst
	if rd.fresh {
		a = f.at(rd.recv.untouched())
	}
	f32.Add(dst, a, in)
	return true
}

// runBlocking executes c on one rank of the goroutine backend, in the
// frame f. The cursor and the round stay on this stack.
func runBlocking(n *simnet.Node, c cursor, f frame) []float32 {
	var rd round
	for c.next(&rd) {
		if rd.phase != noPhase {
			f.enter(n.Rank, n.Clock(), rd.phase)
			continue
		}
		var scratch, in []float32
		if k := rd.scratchNeed(); k > 0 {
			scratch = n.Scratch(k)
		}
		payload := f.prepare(&rd, scratch)
		switch {
		case rd.paired:
			in = n.SendRecv(rd.sendTo, payload)
		case rd.sendTo >= 0:
			n.Send(rd.sendTo, payload)
			fallthrough
		default:
			if rd.recvFrom < 0 {
				continue
			}
			in = n.Recv(rd.recvFrom)
		}
		if f.land(&rd, in) {
			n.ChargeReduce(len(in))
		}
	}
	return f.out()
}

// desCall is one rank's call on the event backend: the cursor, the
// round whose receive is parked, and the one continuation every receive
// of the call resumes — so a call allocates a constant number of
// objects however many rounds it runs.
type desCall struct {
	r      *des.Rank
	c      cursor
	rd     round
	f      frame
	k      func([]float32)
	resume func([]float32)
}

// runResumable executes c on one rank of the event backend, reducing
// data in place and recording the phase clocks in clk (when non-nil); k
// fires with the result. A receive is always the last thing a step does.
func runResumable(r *des.Rank, c cursor, data []float32, clk *PhaseClocks, k func([]float32)) {
	st := &desCall{r: r, c: c, f: newFrame(data, data, c.resultLen(len(data)), clk), k: k}
	st.resume = st.landed
	st.step()
}

func (st *desCall) step() {
	r, rd := st.r, &st.rd
	for st.c.next(rd) {
		if rd.phase != noPhase {
			st.f.enter(r.Rank, r.Clock(), rd.phase)
			continue
		}
		var scratch []float32
		if k := rd.scratchNeed(); k > 0 {
			scratch = r.Scratch(k)
		}
		payload := st.f.prepare(rd, scratch)
		switch {
		case rd.paired:
			r.SendRecv(rd.sendTo, payload, st.resume)
			return
		case rd.sendTo >= 0:
			r.Send(rd.sendTo, payload)
			fallthrough
		default:
			if rd.recvFrom >= 0 {
				r.Recv(rd.recvFrom, st.resume)
				return
			}
		}
	}
	st.k(st.f.out())
}

func (st *desCall) landed(in []float32) {
	if st.f.land(&st.rd, in) {
		st.r.ChargeReduce(len(in))
	}
	st.step()
}
