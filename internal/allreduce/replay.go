package allreduce

import (
	"slices"

	"swcaffe/internal/des"
	"swcaffe/internal/f32"
	"swcaffe/internal/topology"
)

// The event backend's payload, landed in tiles. A DES run reads
// lengths, never values, and every send is a loan its owner does not
// rewrite before the receiver is done with it (see "Payload ownership"),
// so a call on the event backend moves no float while it runs: each
// landing and each local load appends an op — copy, add or zero, over a
// range — to its DESRun's log, and the log is replayed when it fills and
// after the run, on the caller's pool.
//
// Every op is elementwise, and its two operands share their logical
// indices (see frame): the bucket-relative offset of the result and the
// input, and for a hierarchical leader's work vector its chunk's offset
// plus the work offset. Each element therefore lives at one logical
// index, and the ops that touch it are exactly the ops over that index.
// The replay cuts the logical range into tiles and runs each tile's ops
// in the order they were logged: every element sees its ops in the order
// the inline interpreter would have applied them, so the bits are the
// same by construction, and tiles touch disjoint memory, so workers may
// take different tiles. Going tile by tile keeps the p views of one
// tile in cache: the event order lands each message on another rank's
// view, and inline that was the flush's main cost.

// Pool is the caller's set of K workers: Run(k, fn), for k up to K,
// calls fn(m) for every m in [0, k) and returns once all have,
// re-raising any panic (the trainer's pass pool). The zero Pool runs
// everything on the calling goroutine.
type Pool struct {
	K   int
	Run func(k int, fn func(m int))
}

// DESRun is the reusable state of RunDES calls on a cluster: each rank's
// call state and the payload log they append to. Gather runs a cluster
// with it; one DESRun serves one Gather at a time.
type DESRun struct {
	calls []desCall
	log   payLog
}

// Replay sizes. A tile of tileElems floats is 4 kB of each view it
// touches. The log holds ops (payOpBytes each) for at most a
// 1/windowShare share of the p·n floats the calls reduce — 64 kB of log
// per 8 MB of views, so a trainer's log stays under 1 % of its views —
// and no more than maxWindow: 1 MB, at the benchmark's p = 1024 and
// 33 043-element gradient. Measured there on 2 cores, tiles of 1024
// ran the training sweep faster than tiles of 256, 512, 2048 or 4096,
// and windows of 4096 or 65 536 ops no faster than 16 384.
const (
	tileElems   = 1024
	windowShare = 128
	minWindow   = 64
	maxWindow   = 1 << 14
	payOpBytes  = 64 // a payOp and its replay index, rounded up
)

// NewDESRun sizes a DESRun for calls by p ranks on vectors of up to n
// elements; its log is allocated here, once.
func NewDESRun(p, n int) *DESRun {
	d := &DESRun{}
	d.bind(p)
	d.log = newPayLog(tileElems, window(p, n))
	return d
}

func window(p, n int) int { return min(maxWindow, max(minWindow, p*n*4/windowShare/payOpBytes)) }

// Fits reports whether d's log is at least the one NewDESRun(p, n)
// would allocate, so that d serves those calls as well as a new DESRun:
// the bits do not depend on the window, and Gather binds the ranks d
// lacks.
func (d *DESRun) Fits(p, n int) bool { return d.log.window >= window(p, n) }

// bind gives each of p ranks its call state, its continuation bound
// once.
func (d *DESRun) bind(p int) {
	d.calls = make([]desCall, p)
	for i := range d.calls {
		st := &d.calls[i]
		st.run, st.resume = d, st.landed
	}
}

// Gather runs body on every rank of c, as c.RunGather, whose every rank
// calls RunDES with d, and lands the payload the calls logged on pool's
// workers before it returns: the returned vectors hold the sums. A run
// that panics lands nothing more, and its pending ops are dropped when d
// next gathers: they never reach a later run.
func (d *DESRun) Gather(c *des.Cluster, pool Pool, body func(r *des.Rank)) (topology.Result, [][]float32) {
	if len(d.calls) < c.P {
		d.bind(c.P)
	}
	d.log.discard()
	d.log.pool = pool
	res, outs := c.RunGather(body)
	d.log.land()
	return res, outs
}

// opKind is what an op does to its destination range.
type opKind uint8

const (
	opCopy opKind = iota // dst = src
	opAdd                // dst += src
	opZero               // dst = 0
)

// payOp is one logged op, cut to one tile.
type payOp struct {
	dst, src []float32
	tile     int32
	kind     opKind
}

// payLog is a bounded log of payload ops and the replay's index: the
// ops of tile bot+t are ops[idx[start[t]]], ..., ops[idx[start[t+1]-1]],
// in logged order.
type payLog struct {
	tile     int
	window   int // the ops a replay takes at most
	ops      []payOp
	bot, top int32 // the lowest and highest tile logged
	idx      []int32
	start    []int32
	pool     Pool
	k        int         // the workers of the replay under way
	worker   func(m int) // replayTiles, bound once
}

func newPayLog(tile, window int) payLog {
	return payLog{tile: tile, window: window, ops: make([]payOp, 0, window), idx: make([]int32, window)}
}

// add logs kind over dst, whose first element has logical index lo, from
// src (nil for opZero), cutting it at tile bounds. A full log lands
// first.
func (l *payLog) add(kind opKind, dst, src []float32, lo int) {
	for len(dst) > 0 {
		t := lo / l.tile
		n := min(len(dst), (t+1)*l.tile-lo)
		if len(l.ops) == l.window {
			l.land()
		}
		op := payOp{dst: dst[:n:n], tile: int32(t), kind: kind}
		if src != nil {
			op.src, src = src[:n:n], src[n:]
		}
		if len(l.ops) == 0 {
			l.bot, l.top = op.tile, op.tile
		}
		l.ops = append(l.ops, op)
		l.bot, l.top = min(l.bot, op.tile), max(l.top, op.tile)
		dst, lo = dst[n:], lo+n
	}
}

// discard drops the pending ops unlanded.
func (l *payLog) discard() {
	clear(l.ops)
	l.ops = l.ops[:0]
}

// land replays the pending ops and empties the log. It sorts them by
// tile, stably, and splits the tiles among the pool's workers in runs
// of about equal op counts.
func (l *payLog) land() {
	n := len(l.ops)
	if n == 0 {
		return
	}
	nt := int(l.top-l.bot) + 1
	l.start = slices.Grow(l.start[:0], nt+1)[:nt+1]
	clear(l.start)
	for i := range l.ops {
		l.start[l.ops[i].tile-l.bot+1]++
	}
	for t := 1; t <= nt; t++ {
		l.start[t] += l.start[t-1]
	}
	if len(l.idx) < n {
		l.idx = make([]int32, n)
	}
	// Fill each tile from its start, which leaves start[t] at tile t's
	// end; shift back.
	for i := range l.ops {
		t := l.ops[i].tile - l.bot
		l.idx[l.start[t]] = int32(i)
		l.start[t]++
	}
	copy(l.start[1:], l.start[:nt])
	l.start[0] = 0

	l.k = 1
	if l.pool.Run != nil {
		l.k = min(max(l.pool.K, 1), nt)
	}
	if l.k == 1 {
		l.replayTiles(0)
	} else {
		if l.worker == nil {
			l.worker = l.replayTiles
		}
		l.pool.Run(l.k, l.worker)
	}
	l.discard()
}

// replayTiles is worker m's share of a replay: the tiles whose ops begin
// in the m-th k-th of the log.
func (l *payLog) replayTiles(m int) {
	n := len(l.ops)
	from, to := l.tileAt(m*n/l.k), l.tileAt((m+1)*n/l.k)
	for t := from; t < to; t++ {
		for _, i := range l.idx[l.start[t]:l.start[t+1]] {
			op := &l.ops[i]
			switch op.kind {
			case opCopy:
				copy(op.dst, op.src)
			case opAdd:
				f32.Add(op.dst, op.dst, op.src)
			default:
				clear(op.dst)
			}
		}
	}
}

// tileAt is the first tile whose ops begin at or after the i-th op.
func (l *payLog) tileAt(i int) int {
	t, _ := slices.BinarySearch(l.start, int32(i))
	return t
}
