package attack

import "math/rand"

// This file is the Monte Carlo world sampler's random source: a copy of
// math/rand's default source (rand.NewSource, an additive lagged
// Fibonacci generator) that returns the same draws for every seed but
// reseeds two to three times faster (BenchmarkMCSourceSeed against
// BenchmarkMathRandSeed: 4.8–5.4 µs against 12.8–13.6 µs on a shared
// 2-vCPU amd64 box). The plan search reseeds once per Monte Carlo
// decision, and rand.Seed spends nearly all of its time in the 1,841
// serial Schrage divisions of its Lehmer seeding generator; here those
// steps use a Mersenne reduction instead, in one serial chain:
// interleaving jump-ahead chains halves the seed time but does not show
// in perfbench scenarios (20 alternating pairs).
//
// Seeding builds state word i from three consecutive Lehmer values
// x_{21+3i}, x_{22+3i}, x_{23+3i} (x_k = 48271^k·seed mod 2^31−1),
// XORed with a fixed table (math/rand's rngCooked). The table is not
// copied here: lfCooked recovers it once, at package init, from 607
// draws of rand.NewSource(1) — the generator's recurrence
// x_n = x_{n−273} + x_{n−607} runs backwards (unstep), which yields the
// seeded state, and XOR with the Lehmer words of seed 1 leaves the
// table. TestMCSourceMatchesMathRand holds the streams equal.

const (
	lfLen    = 607       // state words (math/rand's rngLen)
	lfTap    = 273       // the second lag (rngTap)
	lehmerP  = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA  = 48271     // the Lehmer multiplier
	lehmer0  = 89482311  // the substitute for a seed ≡ 0
	lfWarmup = 20        // Lehmer steps before the first state word
)

// mcSource is math/rand's default source with a fast Seed. The zero
// value must be seeded before use.
type mcSource struct {
	tap, feed int
	vec       [lfLen]int64
}

// lfCooked is math/rand's rngCooked table, recovered from rand.NewSource.
var lfCooked = func() (cooked [lfLen]int64) {
	src := rand.NewSource(1).(rand.Source64)
	// After lfLen draws tap and feed are back at their seeded positions
	// and every word has been overwritten once, by the draw whose feed
	// index it is.
	var r mcSource
	r.tap, r.feed = 0, lfLen-lfTap
	for n := 1; n <= lfLen; n++ {
		r.vec[(lfLen-lfTap-n+lfLen)%lfLen] = int64(src.Uint64())
	}
	for i := 0; i < lfLen; i++ {
		r.unstep()
	}
	lehmerWords(&cooked, &r.vec, 1)
	return cooked
}()

// lehmerStep returns 48271·x mod 2^31−1 for x in [1, 2^31−2]. The
// product stays below 2^47; folding the bits above 31 back in (2^31 ≡ 1)
// leaves at most 2^31+2^16, and a second fold maps that into
// [1, 2^31−2] (the result is never ≡ 0, since the modulus is prime).
func lehmerStep(x uint64) uint64 {
	t := x * lehmerA
	t = t&lehmerP + t>>31
	return t&lehmerP + t>>31
}

// lehmerWords writes seed's state words into vec: word i is
// x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} ^ cook[i], the same bits
// math/rand's int64 shifts produce. seed must lie in [1, 2^31−2].
func lehmerWords(vec, cook *[lfLen]int64, seed uint64) {
	x := seed
	for i := 0; i < lfWarmup; i++ {
		x = lehmerStep(x)
	}
	for i := range vec {
		a := lehmerStep(x)
		b := lehmerStep(a)
		x = lehmerStep(b)
		vec[i] = int64(a<<40^b<<20^x) ^ cook[i]
	}
}

// Seed resets the source to rand.NewSource(seed)'s state.
func (r *mcSource) Seed(seed int64) {
	r.tap, r.feed = 0, lfLen-lfTap
	seed %= lehmerP
	if seed < 0 {
		seed += lehmerP
	}
	if seed == 0 {
		seed = lehmer0
	}
	lehmerWords(&r.vec, &lfCooked, uint64(seed))
}

// Uint64 returns the next 64-bit draw.
func (r *mcSource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += lfLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += lfLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// unstep undoes the last Uint64 call.
func (r *mcSource) unstep() {
	r.vec[r.feed] -= r.vec[r.tap]
	if r.tap++; r.tap == lfLen {
		r.tap = 0
	}
	if r.feed++; r.feed == lfLen {
		r.feed = 0
	}
}

// Int63 returns the next draw as rand.Rand.Int63 does.
func (r *mcSource) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// Float64 returns the next draw as rand.Rand.Float64 does, resampling
// the (never observed) draw that rounds to 1.
func (r *mcSource) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}
