package elastic

import "testing"

// FuzzParseFaultPlan: no spec panics the parser, and every plan it
// accepts holds only faults Check can match — a non-negative rank and
// step, a known phase, and a bucket (-1 = any) that only a flush
// names. The seeds are the documented syntax and TestParseFaultPlan's
// inputs; testdata/fuzz/FuzzParseFaultPlan holds 60 inputs an earlier
// fuzzing run found, which `go test` replays and
// `go test -fuzz '^FuzzParseFaultPlan$' ./internal/elastic` explores from.
func FuzzParseFaultPlan(f *testing.F) {
	for _, seed := range []string{
		"3@5:flush-bucket-0",
		"3@5:flush-bucket-0, 1@2:forward",
		"0@0:forward,0@1:backward,0@2:pack,0@3:flush",
		"", "x@1:forward", "1@y:forward", "1@2", "1@2:warp", "1@2:flush-bucket-x", "-1@2:forward",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaultPlan(spec)
		if err != nil {
			if p != nil {
				t.Fatalf("%q: error %v with a non-nil plan", spec, err)
			}
			return
		}
		if len(p.faults) == 0 {
			t.Fatalf("%q: accepted an empty plan", spec)
		}
		for _, flt := range p.faults {
			switch flt.Phase {
			case PhaseForward, PhaseBackward, PhasePack, PhaseFlush:
			default:
				t.Fatalf("%q: unknown phase in %+v", spec, flt)
			}
			if flt.Rank < 0 || flt.Step < 0 || flt.Bucket < -1 {
				t.Fatalf("%q: negative coordinate in %+v", spec, flt)
			}
			if flt.Bucket >= 0 && flt.Phase != PhaseFlush {
				t.Fatalf("%q: bucket %d on phase %s", spec, flt.Bucket, flt.Phase)
			}
		}
	})
}
