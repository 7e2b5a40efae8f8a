package swdnn

import (
	"testing"

	"swcaffe/internal/sw26010"
)

// TestModelIDKeysByValue: the integer in a plan key names a model's
// value, not its pointer. Equal models share an id; a model mutated in
// place after a query gets another id and a freshly priced plan, even
// though the last-seen fast path saw that very pointer; and restoring
// the value restores the id.
func TestModelIDKeysByValue(t *testing.T) {
	a, b := sw26010.Default(), sw26010.Default()
	id := modelID(a)
	if modelID(b) != id {
		t.Fatal("equal model values got different ids")
	}
	before := GEMMPlan(a, 256, 256, 256)
	a.DMAPeak /= 4
	if modelID(a) == id {
		t.Fatal("a model mutated in place kept its id")
	}
	if after := GEMMPlan(a, 256, 256, 256); after.Time <= before.Time {
		t.Fatalf("quarter-bandwidth model got %g, full bandwidth %g: stale plan", after.Time, before.Time)
	}
	a.DMAPeak *= 4
	if modelID(a) != id {
		t.Fatal("restoring a model's value did not restore its id")
	}
	if got := GEMMPlan(a, 256, 256, 256); got != before {
		t.Fatalf("restored model's plan %+v, was %+v", got, before)
	}
}
