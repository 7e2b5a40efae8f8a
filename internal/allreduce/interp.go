package allreduce

import (
	"fmt"

	"swcaffe/internal/des"
	"swcaffe/internal/f32"
	"swcaffe/internal/simnet"
)

// The two interpreters of a schedule cursor. They own every side effect
// of a collective — the writes to the caller's vector, scratch, the
// messages, the arithmetic, the reduction charge, the phase hook — and
// are the only callers of Send, Recv, SendRecv and ChargeReduce in this
// package. Both execute a round the same way, in the same order; they
// differ only in how a receive returns: the blocking one waits for it,
// the event one parks the call and is resumed with the payload.

// frame holds the vectors of one call (see vector). The result is the
// caller's vector, reduced where it lies; only the work vector comes
// from the rank's arena (Scratch).
type frame struct {
	vecs [2][]float32
	n    int
}

// newFrame starts a call that reduces data in place, worked at resLen
// elements: the pad past len(data) lies inside data's own capacity and
// is zeroed. A caller that hands over less capacity than the schedule's
// pad needs has broken the in-place contract (see Schedule.Run).
func newFrame(data []float32, resLen int) frame {
	if cap(data) < resLen {
		panic(fmt.Sprintf("allreduce: in-place vector of %d elements has capacity %d, the schedule pads it to %d",
			len(data), cap(data), resLen))
	}
	f := frame{n: len(data)}
	f.vecs[result] = data[:resLen]
	clear(f.vecs[result][f.n:])
	return f
}

// out is the rank's result: the caller's vector again, without the pad.
func (f *frame) out() []float32 { return f.vecs[result][:f.n:f.n] }

func (f *frame) at(s span) []float32 { return f.vecs[s.vec][s.lo:s.hi] }

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
		dst := f.at(rd.recv)
		clear(dst[copy(dst, f.at(rd.send)):])
		return nil
	case rd.sendTo < 0:
		return nil
	}
	return f.at(rd.send)
}

// land puts a received payload where rd says and reports whether it was
// a reduction, to be charged. The payload must have exactly
// rd.recv.len() elements (see round); one of any other length is a
// broken schedule, not something to truncate or pad.
func (f *frame) land(rd *round, in []float32) bool {
	dst := f.at(rd.recv)
	if len(in) != len(dst) {
		panic(fmt.Sprintf("allreduce: round %+v received %d elements, want recv.len() = %d", *rd, len(in), len(dst)))
	}
	if !rd.reduce {
		copy(dst, in)
		return false
	}
	f32.Add(dst, in)
	return true
}

// runBlocking executes c on one rank of the goroutine backend, reducing
// data in place. The cursor and the round stay on this stack.
func runBlocking(n *simnet.Node, c cursor, data []float32) []float32 {
	f := newFrame(data, c.resultLen(len(data)))
	var rd round
	for c.next(&rd) {
		if rd.phase != "" {
			hierPhase(n.Rank, n.Clock(), rd.phase)
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
// data in place; k fires with the result. A receive is always the last
// thing a step does.
func runResumable(r *des.Rank, c cursor, data []float32, k func([]float32)) {
	st := &desCall{r: r, c: c, f: newFrame(data, c.resultLen(len(data))), k: k}
	st.resume = st.landed
	st.step()
}

func (st *desCall) step() {
	r, rd := st.r, &st.rd
	for st.c.next(rd) {
		if rd.phase != "" {
			hierPhase(r.Rank, r.Clock(), rd.phase)
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
