package allreduce

import (
	"fmt"

	"swcaffe/internal/des"
	"swcaffe/internal/f32"
	"swcaffe/internal/simnet"
)

// The two interpreters of a schedule cursor. Between them they own every
// side effect of a collective — the messages, the reduction charge, the
// phase clocks and hook, and the payload: the writes to the result and
// scratch and the arithmetic — and are the only callers of Send, Recv,
// SendRecv and ChargeReduce in this package. Both step a round the same
// way, in the same order; they differ in how a receive returns and in
// when the payload moves. The blocking one waits for its receive and
// lands the payload there and then (land); the event one parks the call,
// is resumed with the payload, and only logs where it goes: the run's
// log lands it after the run, in tiles (replay.go). The event backend
// reads lengths, never values, so nothing it decides can see the
// difference.

// frame holds the vectors of one call (see vector). The input is the
// caller's vector and is only read. The result is the same vector in
// place, or memory from the rank's arena (Scratch) in a one-shot call,
// which the cursor's first touches fill from the input; the work
// vector, too, comes from the arena. base maps each vector's offsets to
// logical indices, the ones both ends of a message share: a result or
// input offset is its own logical index, and a work offset lies at the
// leader's chunk, which its load round gives (see logical).
type frame struct {
	vecs [3][]float32
	base [3]int
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

// payload is what rd sends: its send range, or nil for a round that
// sends nothing.
func (f *frame) payload(rd *round) []float32 {
	if rd.local || rd.sendTo < 0 {
		return nil
	}
	return f.at(rd.send)
}

// load readies the local round rd, given the scratch it needs, and
// returns its ranges: the round copies src over the front of dst and
// zeroes the rest, which pads a vector. A load into work places the
// work vector at the chunk it loads.
func (f *frame) load(rd *round, scratch []float32) (dst, src []float32) {
	if rd.recv.vec == work {
		f.vecs[work], f.base[work] = scratch, rd.send.lo-rd.recv.lo
	}
	return f.at(rd.recv), f.at(rd.send)
}

// logical is the logical index of s's first element (see frame).
func (f *frame) logical(s span) int { return f.base[s.vec] + s.lo }

// onItself reports whether src starts where dst does: a load of the
// input onto itself in place, which copies nothing.
func onItself(dst, src []float32) bool { return len(src) == 0 || &src[0] == &dst[0] }

// landing is where a payload received in rd lands. The payload must
// have exactly rd.recv.len() elements (see round); one of any other
// length is a broken schedule, not something to truncate or pad.
func (f *frame) landing(rd *round, in []float32) []float32 {
	dst := f.at(rd.recv)
	if len(in) != len(dst) {
		panic(fmt.Sprintf("allreduce: round %+v received %d elements, want recv.len() = %d", *rd, len(in), len(dst)))
	}
	return dst
}

// land puts a received payload where rd says and reports whether it was
// a reduction, to be charged (see landing). A fresh reduce adds the
// payload to the input's range: the result's is untouched.
func (f *frame) land(rd *round, in []float32) bool {
	dst := f.landing(rd, in)
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
		if rd.local {
			var scratch []float32
			if k := rd.scratchNeed(); k > 0 {
				scratch = n.Scratch(k)
			}
			dst, src := f.load(&rd, scratch)
			if !onItself(dst, src) {
				copy(dst, src)
			}
			clear(dst[len(src):])
			continue
		}
		var in []float32
		switch {
		case rd.paired:
			in = n.SendRecv(rd.sendTo, f.payload(&rd))
		case rd.sendTo >= 0:
			n.Send(rd.sendTo, f.payload(&rd))
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
// of the call resumes. It lives in its DESRun, one per rank, with the
// continuation bound once, so a warm call allocates nothing however
// many rounds it runs.
type desCall struct {
	run    *DESRun
	r      *des.Rank
	c      cursor
	rd     round
	f      frame
	k      func(*des.Rank, []float32)
	resume func([]float32)
}

func (st *desCall) step() {
	r, rd, log := st.r, &st.rd, &st.run.log
	for st.c.next(rd) {
		if rd.phase != noPhase {
			if hierPhaseHook.Load() != nil {
				log.land() // the tests' hook may read or write the views
			}
			st.f.enter(r.Rank, r.Clock(), rd.phase)
			continue
		}
		if rd.local {
			var scratch []float32
			if k := rd.scratchNeed(); k > 0 {
				scratch = r.Scratch(k)
			}
			dst, src := st.f.load(rd, scratch)
			lo := st.f.logical(rd.recv)
			if lo != st.f.logical(rd.send) {
				panic(fmt.Sprintf("allreduce: local round %+v moves logical index %d to %d", *rd, st.f.logical(rd.send), lo))
			}
			if !onItself(dst, src) {
				log.add(opCopy, dst[:len(src)], src, lo)
			}
			log.add(opZero, dst[len(src):], nil, lo+len(src))
			continue
		}
		switch {
		case rd.paired:
			r.SendRecv(rd.sendTo, st.f.payload(rd), st.resume)
			return
		case rd.sendTo >= 0:
			r.Send(rd.sendTo, st.f.payload(rd))
			fallthrough
		default:
			if rd.recvFrom >= 0 {
				r.Recv(rd.recvFrom, st.resume)
				return
			}
		}
	}
	st.k(r, st.f.out())
}

// landed logs where the payload of the parked receive goes, and goes on
// with the call. The sender's range has the same logical indices as the
// landing, and a fresh reduce adds to the landing itself: RunDES is
// always in place, so the input's range is the result's.
func (st *desCall) landed(in []float32) {
	rd := &st.rd
	dst, kind := st.f.landing(rd, in), opCopy
	if rd.reduce {
		kind = opAdd
		st.r.ChargeReduce(len(in))
	}
	st.run.log.add(kind, dst, in, st.f.logical(rd.recv))
	st.step()
}
