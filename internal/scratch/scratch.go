// Package scratch is the per-rank bump allocator both cluster backends
// hand to collective bodies (simnet.Node.Scratch, des.Rank.Scratch): a
// body takes the working vectors it needs from its rank's arena instead
// of the heap, and a warm run allocates nothing for them. The schedules
// of internal/allreduce reduce the caller's vector where it lies and
// take only what cannot live there — the padded copy a hierarchical
// leader halves its chunk in — and their one-shot forms, which promise
// to leave the input alone, the result vector too.
package scratch

// Arena hands out float32 slices carved from a list of blocks. A
// request goes to the first block with room (first fit); when none has,
// the arena allocates a block of exactly that size and keeps it, so the
// vectors a cold run forced onto the heap are the arena from then on
// and every later run of the same shape is served in place. Rewind —
// between runs, never within one — makes every block available again;
// nothing is ever freed. A slice is valid until the next Rewind; its
// contents are whatever an earlier run left there. One arena serves one
// rank, so it needs no locking.
type Arena struct {
	blocks []block
}

type block struct {
	buf []float32
	off int
}

// Take returns n float32s of unspecified content, capped at n.
func (a *Arena) Take(n int) []float32 {
	if n == 0 {
		return nil
	}
	for i := range a.blocks {
		if b := &a.blocks[i]; b.off+n <= len(b.buf) {
			s := b.buf[b.off : b.off+n : b.off+n]
			b.off += n
			return s
		}
	}
	buf := make([]float32, n)
	a.blocks = append(a.blocks, block{buf: buf, off: n})
	return buf
}

// Rewind makes the whole arena available again.
func (a *Arena) Rewind() {
	for i := range a.blocks {
		a.blocks[i].off = 0
	}
}
