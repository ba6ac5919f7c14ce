package attack

import (
	"math"
	"math/rand"
	"testing"
)

// TestMCSourceMatchesMathRand holds mcSource to rand.New(rand.NewSource(s))
// draw for draw: Float64 and Int63 streams over more than two feedback
// cycles (1,300 draws > 2·607), for edge seeds — zero, negatives,
// multiples and neighbours of 2^31−1, the int64 extremes — and 10,000
// seeds drawn at random from the whole int64 range.
func TestMCSourceMatchesMathRand(t *testing.T) {
	const draws = 1300
	seeds := []int64{0, 1, -1, 2, -2, lehmer0, -lehmer0, lehmerP, -lehmerP, 2 * lehmerP, -3 * lehmerP,
		lehmerP - 1, lehmerP + 1, -(lehmerP - 1), -(lehmerP + 1), 1 << 31, 1 << 62,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		math.MaxInt64 / lehmerP * lehmerP, math.MinInt64 / lehmerP * lehmerP}
	pick := rand.New(rand.NewSource(20140324))
	for i := 0; i < 10000; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	var src mcSource
	for i, seed := range seeds {
		ref := rand.New(rand.NewSource(seed))
		src.Seed(seed)
		useFloat := i%2 == 0
		for d := 0; d < draws; d++ {
			if useFloat {
				if got, want := src.Float64(), ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d: Float64 draw %d = %v, math/rand %v", seed, d, got, want)
				}
			} else if got, want := src.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: Int63 draw %d = %d, math/rand %d", seed, d, got, want)
			}
		}
	}
}

// TestMCSourceReseedsInPlace checks that Seed fully resets a used source:
// reseeding mid-stream replays the fresh stream.
func TestMCSourceReseedsInPlace(t *testing.T) {
	var a, b mcSource
	a.Seed(7)
	for i := 0; i < 1000; i++ {
		a.Uint64()
	}
	a.Seed(99)
	b.Seed(99)
	for d := 0; d < 700; d++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d after reseed: %d != %d", d, x, y)
		}
	}
}

// TestLehmerArithmetic checks the Mersenne-reduced Lehmer steps against
// plain modular arithmetic at the edges of their domain.
func TestLehmerArithmetic(t *testing.T) {
	for _, x := range []uint64{1, 2, 44488, 44489, lehmerP - 2, lehmerP - 1, 1 << 30, 1<<31 - 3, 123456789} {
		if got, want := lehmerStep(x), x*lehmerA%lehmerP; got != want {
			t.Errorf("lehmerStep(%d) = %d, want %d", x, got, want)
		}
	}
}

func BenchmarkMCSourceSeed(b *testing.B) {
	var src mcSource
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
}

func BenchmarkMathRandSeed(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
	}
}
