package experiments

import (
	"flag"
	"fmt"
	"math"
	"testing"

	"swcaffe/internal/detrand"
)

var formatSeed = flag.Uint64("format-seed", 20261019, "seed of TestAppendFixedMatchesFmt's generated values")

// TestAppendFixedMatchesFmt: appendFixed gives fmt's "%.*f" bytes at
// every precision the tables print (0–4) for every value, whichever
// path formats it. The named cases sit on the edges of the Ryū path:
// signed zeros and a negative value that rounds to zero, exact binary
// halves (fmt rounds half to even), carries into a new leading digit,
// magnitudes around the 18-digit limit (the nearest double to 1e23 lies
// below 10^23), the extremes of the range and the non-finite values,
// then the powers of ten from 1e-6 to 1e22 and the doubles just above
// them, where Log10 alone can guess the exponent low. The generated
// values are 10^6 random bit patterns — one in 64 with any exponent,
// the rest with magnitudes the fast path serves — values just below
// powers of ten, where the guess can be high, and values spread like
// the tables' times and rates. Replay a failure with -format-seed.
func TestAppendFixedMatchesFmt(t *testing.T) {
	check := func(v float64, prec int, label string) bool {
		want := fmt.Sprintf("%.*f", prec, v)
		if got := string(appendFixed(nil, v, prec)); got != want {
			t.Errorf("%s: appendFixed(%v [%#016x], %d) = %q, want %q", label, v, math.Float64bits(v), prec, got, want)
			return false
		}
		return true
	}
	named := []float64{
		0, math.Copysign(0, -1), -0.001,
		0.125, 0.375, 2.5, 0.5, 1.5, -2.5,
		9.995, 9.996, 99.9999, 0.9999, 9.5, 0.09996, 999.99996,
		1000, 1e-3, 1e-4, 123456.789, 999999.9999, 9999999.9999, math.Nextafter(1000, 0),
		1e16, 1e17, 1e18, 1e22, 1e23,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, v := range named {
		for prec := 0; prec <= 4; prec++ {
			if check(v, prec, "named") && fixed(v, prec) != fmt.Sprintf("%.*f", prec, v) {
				t.Errorf("fixed(%v, %d) = %q, want appendFixed's bytes", v, prec, fixed(v, prec))
			}
		}
	}
	// Powers of ten and the doubles just above them: Log10 reads 1e15
	// and its next doubles as 14.99…, one low without appendFixed's nudge.
	for k := -6; k <= 22; k++ {
		v := math.Pow(10, float64(k))
		for range 4 {
			for prec := 0; prec <= 4; prec++ {
				check(v, prec, "power of ten")
			}
			v = math.Nextafter(v, math.Inf(1))
		}
	}
	if want := "-0.00"; fixed(-0.001, 2) != want {
		t.Errorf("fixed(-0.001, 2) = %q, want %q", fixed(-0.001, 2), want)
	}
	if want := "10.00"; fixed(9.996, 2) != want {
		t.Errorf("fixed(9.996, 2) = %q, want %q", fixed(9.996, 2), want)
	}

	n := 1_000_000
	if testing.Short() || raceDetector {
		n = 50_000
	}
	rng := detrand.New(*formatSeed)
	label := fmt.Sprintf("seed %d (-format-seed %d)", *formatSeed, *formatSeed)
	bad := 0
	for i := 0; i < n && bad < 10; i++ {
		bits := rng.Uint64()
		if i%64 != 0 {
			// Keep sign and mantissa; draw the exponent so |v| lies in
			// [2^-20, 2^64), where d = e+1+prec spans the fast path and
			// its edges. (A whole random pattern is mostly a number of
			// hundreds of digits, which both sides give to strconv's 'f'.)
			bits = bits&^(0x7ff<<52) | uint64(1023-20+rng.Intn(84))<<52
		}
		if !check(math.Float64frombits(bits), i%5, label) {
			bad++
		}
	}
	for i := 0; i < n/20 && bad < 10; i++ {
		// Just below a power of ten, where the exponent guess can be one
		// high and the digits can carry into the next decade.
		k := -6 + rng.Intn(25)
		if !check(math.Pow(10, float64(k))*(1-3e-9*rng.Float64()), i%5, label) {
			bad++
		}
		// Times in seconds as fmtTime scales them, and rates and ratios:
		// log-uniform over [1e-9, 1e5].
		v := math.Pow(10, -9+14*rng.Float64())
		for prec := 0; prec <= 4; prec++ {
			if !check(v, prec, label) || !check(v*1e3, prec, label) || !check(v*1e6, prec, label) {
				bad++
			}
		}
	}
}

// TestAppendFixedAllocatesNothing: appending into a buffer with room
// for the result allocates nothing, on the Ryū path and off it.
func TestAppendFixedAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, v := range []float64{0.0456, 9.995, 123456.789, -2.5, 1e23, 0} {
		if a := testing.AllocsPerRun(100, func() { appendFixed(buf[:0], v, 2) }); a != 0 {
			t.Errorf("appendFixed(%v, 2) allocates %v times", v, a)
		}
	}
}
