// Package detrand is the repo-wide deterministic PRNG: a counted
// splitmix64 stream whose k-th draw is a pure function of (seed, k).
// It exists so that no package needs math/rand outside its tests, a
// contract the rawrand analyzer (cmd/swvet) enforces.
// math/rand's generators hide unbounded internal state (Intn
// rejection-samples a data-dependent number of draws), so a stream
// position cannot be named, checkpointed, or sought to; here the
// cursor is one integer.
//
// Splitmix64 (Steele, Lea, Flood; JPDC 2014) passes BigCrush; its
// statistical quality is far beyond what weight init, dropout masks,
// and synthetic datasets need.
package detrand

import "math"

// Mix returns the splitmix64 output for the given seed and draw
// index: the finalizer applied to seed + draw·golden-gamma. Draw
// indices conventionally start at 1 (RNG's first Uint64 is
// Mix(seed, 1)).
func Mix(seed, draw uint64) uint64 {
	x := seed + draw*0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// RNG is a counted splitmix64 stream. The zero value is a valid
// stream with seed 0; New names the seed explicitly.
type RNG struct {
	seed  uint64
	draws uint64
}

// New returns a fresh stream at draw 0.
func New(seed uint64) *RNG { return &RNG{seed: seed} }

// Uint64 returns the next draw and advances the cursor by exactly one.
func (r *RNG) Uint64() uint64 {
	r.draws++
	return Mix(r.seed, r.draws)
}

// Intn returns a draw in [0, n). The modulo bias is below 2^-40 for
// any realistic n; the result is a deterministic function of the
// cursor alone, which is what the determinism contract buys.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("detrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a draw in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a draw in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// NormFloat64 returns a standard-normal draw via Box–Muller. It
// consumes exactly two uniform draws per call — no rejection, no
// cached spare — so the cursor advances by a fixed, predictable
// amount and a stream position still names the whole future.
func (r *RNG) NormFloat64() float64 {
	// 1-Float64 lies in (0, 1], keeping the log argument nonzero. The
	// draw is rounded explicitly: inlined, its scaling would otherwise
	// fuse with the subtraction where the target has a fused
	// multiply-add.
	u := 1 - float64(r.Float64())
	v := r.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}
