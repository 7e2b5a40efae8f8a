// Package scratch is the per-rank bump allocator both cluster backends
// hand to collective bodies (simnet.Node.Scratch, des.Rank.Scratch): a
// body that must stage a payload takes it from its rank's arena
// instead of the heap, and a warm run allocates nothing for it.
package scratch

// Arena hands out float32 slices carved from one backing array. It is
// rewound — never freed — between runs, and sized from demand: a
// request that does not fit falls back to the heap for this run, and
// the next Rewind grows the backing array to the run's whole demand, so
// after one run of a given shape every request is served in place.
// A slice is valid until the next Rewind; its contents are whatever an
// earlier run left there. One arena serves one rank, so it needs no
// locking.
type Arena struct {
	buf  []float32
	off  int
	need int // total taken since the last Rewind
}

// Take returns n float32s of unspecified content, capped at n.
func (a *Arena) Take(n int) []float32 {
	a.need += n
	if a.off+n > len(a.buf) {
		return make([]float32, n)
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// Rewind makes the whole arena available again, first growing it to
// the demand of the run just finished.
func (a *Arena) Rewind() {
	if a.need > len(a.buf) {
		a.buf = make([]float32, a.need)
	}
	a.off, a.need = 0, 0
}
