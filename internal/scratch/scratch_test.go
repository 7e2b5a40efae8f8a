package scratch

import "testing"

func TestArena(t *testing.T) {
	var a Arena
	cold := a.Take(5) // nothing to carve from yet: heap
	cold[4] = 1
	if len(cold) != 5 || cap(cold) != 5 {
		t.Fatalf("cold Take: len %d cap %d", len(cold), cap(cold))
	}
	a.Take(3)
	a.Rewind() // grows to the run's demand, 8

	x, y := a.Take(5), a.Take(3)
	x[4], y[0] = 7, 9
	if x[4] != 7 || cap(x) != 5 {
		t.Fatal("slices of one run overlap")
	}
	if over := a.Take(1); len(over) != 1 {
		t.Fatal("overflow Take failed")
	}
	a.Rewind() // demand was 9

	if got := testing.AllocsPerRun(10, func() {
		a.Take(5)
		a.Take(3)
		a.Take(1)
		a.Rewind()
	}); got != 0 {
		t.Fatalf("warm arena allocated %v objects per run", got)
	}
	if len(a.buf) != 9 {
		t.Fatalf("arena settled at %d elements, want the largest run's demand, 9", len(a.buf))
	}
}
