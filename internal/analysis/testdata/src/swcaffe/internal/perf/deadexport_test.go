package perf

import "testing"

// A test-only reference does not keep an export alive.
func TestTestOnly(t *testing.T) {
	if TestOnly != 2 || Kept != 3 {
		t.Fatal("fixture")
	}
}
