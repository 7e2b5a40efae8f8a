package allreduce

import (
	"fmt"

	"swcaffe/internal/topology"
)

// Price is what the schedule's call on [lo, lo+n) of a total-element
// vector costs on fab, found without running it: every rank's cursor
// steps on a scalar clock, each receive takes the next send on its link
// by length alone, and fab charges as on the event backend. The ranks
// form a Kahn network, so the order they step in moves no clock: Price
// gives RunDES's Result under DESRun.Gather bit for bit, with Clocks of
// the caller's own.
func (s Schedule) Price(fab *topology.Fabric, lo, n, total int) topology.Result {
	p := fab.P
	w := walk{fab: fab, ranks: make([]walker, p), clocks: make([]float64, p),
		ready: make([]int32, p), wires: make([]queued, 0, p), free: -1}
	for r := range w.ranks {
		w.ranks[r] = walker{c: newCursor(s, r, p, fab.Supernodes(), lo, n, total), head: -1}
		w.ready[r] = int32(r)
	}
	for len(w.ready) > 0 {
		r := w.ready[len(w.ready)-1]
		w.ready = w.ready[:len(w.ready)-1]
		w.step(int(r))
	}
	if w.done != p || w.taken != w.msgs {
		panic(fmt.Sprintf("allreduce: %s priced %d of %d ranks, %d of %d messages", s.Name(), w.done, p, w.taken, w.msgs))
	}
	return topology.NewResult(w.clocks, w.msgs, w.crossMsgs, w.crossBytes)
}

// walk is one Price: the ranks, their clocks, the wires queued for them in
// slots chained by index (free heads the empty ones), the ranks to step.
type walk struct {
	fab                                *topology.Fabric
	ranks                              []walker
	clocks                             []float64
	wires                              []queued
	free                               int32
	ready                              []int32
	done                               int
	msgs, taken, crossMsgs, crossBytes int64
}

// walker is one rank: its cursor, the receive it waits on (from, its own
// half of an exchange or -1, reduce), whether it is parked there, and
// the chain of wires queued for it.
type walker struct {
	c              cursor
	from, half     int
	reduce, parked bool
	head, tail     int32
}

// queued is elems elements that src posted at sent, not yet taken.
type queued struct {
	elems     int
	sent      float64
	src, next int32
}

// step runs rank r until it parks on a receive nothing is queued for.
// Phase and local rounds name no peer, and cost nothing.
func (w *walk) step(r int) {
	k := &w.ranks[r]
	var rd round
	for k.c.next(&rd) {
		k.half = -1
		if rd.sendTo >= 0 {
			w.post(r, rd.sendTo, rd.send.len())
			if rd.paired {
				k.half = rd.send.len()
			} else {
				w.clocks[r] = w.fab.Send(r, rd.sendTo, rd.send.len(), w.clocks[r])
			}
		}
		if rd.recvFrom >= 0 {
			if k.from, k.reduce = rd.recvFrom, rd.reduce; !w.take(r) {
				k.parked = true
				return
			}
		}
	}
	w.done++
}

// post queues elems elements from src at the end of dst's chain, and
// wakes dst if it is parked on src.
func (w *walk) post(src, dst, elems int) {
	w.msgs++
	if cross, bytes := w.fab.Cross(src, dst, elems); cross {
		w.crossMsgs++
		w.crossBytes += bytes
	}
	q, i := queued{elems: elems, sent: w.clocks[src], src: int32(src), next: -1}, w.free
	if i < 0 {
		i, w.wires = int32(len(w.wires)), append(w.wires, q)
	} else {
		w.free, w.wires[i] = w.wires[i].next, q
	}
	d := &w.ranks[dst]
	if d.head < 0 {
		d.head = i
	} else {
		w.wires[d.tail].next = i
	}
	d.tail = i
	if d.parked && d.from == src && w.take(dst) {
		d.parked = false
		w.ready = append(w.ready, int32(dst))
	}
}

// take lands the first wire queued for rank r by its peer, if there is
// one, and moves r's clock over it.
func (w *walk) take(r int) bool {
	k := &w.ranks[r]
	for prev, i := int32(-1), k.head; i >= 0; prev, i = i, w.wires[i].next {
		q := w.wires[i]
		if int(q.src) != k.from {
			continue
		}
		if prev < 0 {
			k.head = q.next
		} else {
			w.wires[prev].next = q.next
		}
		if k.tail == i {
			k.tail = prev
		}
		w.wires[i].next, w.free = w.free, i
		t := w.fab.Arrive(k.from, r, max(q.elems, k.half), w.clocks[r], q.sent)
		if k.reduce {
			t = w.fab.Reduce(q.elems, t)
		}
		w.clocks[r], w.taken = t, w.taken+1
		return true
	}
	return false
}
