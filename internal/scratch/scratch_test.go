package scratch

import "testing"

func TestArena(t *testing.T) {
	var a Arena
	cold := a.Take(5) // nothing to carve from yet: a new block, kept
	cold[4] = 1
	if len(cold) != 5 || cap(cold) != 5 {
		t.Fatalf("cold Take: len %d cap %d", len(cold), cap(cold))
	}
	a.Take(3)
	a.Rewind()

	// The cold run's vectors are the arena: the same shape is served
	// from the same memory.
	x, y := a.Take(5), a.Take(3)
	if &x[0] != &cold[0] {
		t.Fatal("the warm run did not reuse the cold run's block")
	}
	x[4], y[0] = 7, 9
	if x[4] != 7 || cap(x) != 5 {
		t.Fatal("slices of one run overlap")
	}
	if over := a.Take(1); len(over) != 1 {
		t.Fatal("overflow Take failed")
	}
	if a.Take(0) != nil {
		t.Fatal("empty Take returned memory")
	}
	a.Rewind()

	// First fit: a smaller request carves the first block with room.
	if s := a.Take(2); &s[0] != &cold[0] || cap(s) != 2 {
		t.Fatal("a small request did not carve the first block")
	}
	a.Rewind()

	if got := testing.AllocsPerRun(10, func() {
		a.Take(5)
		a.Take(3)
		a.Take(1)
		a.Rewind()
	}); got != 0 {
		t.Fatalf("warm arena allocated %v objects per run", got)
	}
	held := 0
	for _, b := range a.blocks {
		held += len(b.buf)
	}
	if len(a.blocks) != 3 || held != 9 {
		t.Fatalf("arena settled at %d blocks of %d elements, want the three blocks the cold runs allocated, 9 elements", len(a.blocks), held)
	}
}
