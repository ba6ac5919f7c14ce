package fusion

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"sensorfusion/internal/interval"
)

// The batch kernel (interval.Batch + Sweeper.FuseBatch/ScoreBatch) is a
// pure constant-factor rewrite of the scalar FuseWith path — the
// attacker's plan search scores whole candidate sets through it, so any
// divergence from Fuse/FuseNaive would silently change which placements
// win. These tests pin batch ≡ scalar ≡ reference bit-for-bit on random
// and fuzzed inputs, across re-preloads (sentinel invalidation), and pin
// the batch scoring loop at 0 allocs/op.

// forEachKernel runs fn once per batch kernel available in this
// build/CPU (interval.KernelNames), restoring the entry kernel after.
func forEachKernel(t *testing.T, fn func(name string)) {
	t.Helper()
	prev := interval.KernelName()
	defer func() {
		if err := interval.SetKernel(prev); err != nil {
			t.Fatalf("restoring kernel %q: %v", prev, err)
		}
	}()
	for _, name := range interval.KernelNames() {
		if err := interval.SetKernel(name); err != nil {
			t.Fatalf("SetKernel(%q): %v", name, err)
		}
		fn(name)
	}
}

// checkBatchAgainstReference scores every candidate in cands through
// FuseBatch and ScoreBatch — under every available dispatch kernel —
// and requires exact agreement with the scalar sweeper and the O(n^2)
// FuseNaive reference, success and failure alike. Batch results must
// carry the scalar sweeper's very bits, signed zeros included; against
// FuseNaive, which may pick the other zero of a ±0 tie, values suffice.
func checkBatchAgainstReference(t *testing.T, sw *interval.Sweeper, base []interval.Interval, cands [][]interval.Interval, k, f int) {
	t.Helper()
	var b interval.Batch
	b.Reset(k)
	for _, c := range cands {
		b.Add(c)
	}
	scals := make([]interval.Interval, len(cands))
	scalOKs := make([]bool, len(cands))
	for i, c := range cands {
		all := append(append([]interval.Interval(nil), base...), c...)
		want, wantErr := FuseNaive(all, f)
		scal, scalOK := sw.FuseWith(c, f)
		if scalOK != (wantErr == nil) || (scalOK && !scal.Equal(want)) {
			t.Fatalf("scalar sweeper disagrees with reference: base=%v cand=%v f=%d: (%v, %v) vs (%v, %v)",
				base, c, f, scal, scalOK, want, wantErr)
		}
		scals[i], scalOKs[i] = scal, scalOK
	}
	out := make([]interval.Interval, b.Len())
	ok := make([]bool, b.Len())
	widths := make([]float64, b.Len())
	wok := make([]bool, b.Len())
	forEachKernel(t, func(kern string) {
		sw.FuseBatch(&b, f, out, ok)
		sw.ScoreBatch(&b, f, widths, wok)
		for i, c := range cands {
			scal, scalOK := scals[i], scalOKs[i]
			if ok[i] != scalOK {
				t.Fatalf("kernel=%s base=%v cand=%v f=%d: FuseBatch ok=%v, scalar ok=%v", kern, base, c, f, ok[i], scalOK)
			}
			if wok[i] != scalOK {
				t.Fatalf("kernel=%s base=%v cand=%v f=%d: ScoreBatch ok=%v, scalar ok=%v", kern, base, c, f, wok[i], scalOK)
			}
			if ok[i] {
				if !sameBits(out[i], scal) {
					t.Fatalf("kernel=%s base=%v cand=%v f=%d: FuseBatch %v, scalar %v", kern, base, c, f, out[i], scal)
				}
				if math.Float64bits(widths[i]) != math.Float64bits(scal.Width()) {
					t.Fatalf("kernel=%s base=%v cand=%v f=%d: ScoreBatch width %v, scalar %v", kern, base, c, f, widths[i], scal.Width())
				}
			}
		}
	})
}

// sameBits reports whether a and b have bit-identical endpoints: Equal
// compares values, under which -0 == +0.
func sameBits(a, b interval.Interval) bool {
	return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) && math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
}

func TestFuseBatchMatchesScalarOnRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(20140325))
	var sw interval.Sweeper
	for trial := 0; trial < 1500; trial++ {
		nBase := rng.Intn(7)
		k := rng.Intn(4) // k == 0 candidates score the bare base
		base := randomIvs(nBase, rng)
		if nBase+k == 0 {
			continue
		}
		cands := make([][]interval.Interval, 1+rng.Intn(8))
		for i := range cands {
			cands[i] = randomIvs(k, rng)
		}
		f := rng.Intn(nBase + k)
		sw.Preload(base)
		checkBatchAgainstReference(t, &sw, base, cands, k, f)
	}
}

func TestFuseBatchAcrossBaseMutations(t *testing.T) {
	// Preload/Add must invalidate the kernel's sentinel arrays: fuse a
	// batch, mutate the base, fuse again — both must match the scalar
	// path against the then-current base.
	rng := rand.New(rand.NewSource(29))
	var sw interval.Sweeper
	base := randomIvs(3, rng)
	sw.Preload(base)
	for round := 0; round < 60; round++ {
		k := 1 + rng.Intn(2)
		cands := [][]interval.Interval{randomIvs(k, rng), randomIvs(k, rng)}
		f := rng.Intn(len(base) + k)
		checkBatchAgainstReference(t, &sw, base, cands, k, f)
		switch round % 3 {
		case 0:
			iv := randomIvs(1, rng)[0]
			sw.Add(iv)
			base = append(base, iv)
		case 1:
			base = randomIvs(1+rng.Intn(5), rng)
			sw.Preload(base)
		}
	}
}

func TestFuseBatchRejectsBadFaultBounds(t *testing.T) {
	var sw interval.Sweeper
	sw.Preload([]interval.Interval{interval.MustNew(0, 1), interval.MustNew(0.5, 2)})
	var b interval.Batch
	b.Reset(1)
	b.Add([]interval.Interval{interval.MustNew(0.2, 0.8)})
	out := make([]interval.Interval, 1)
	ok := []bool{true}
	sw.FuseBatch(&b, -1, out, ok)
	if ok[0] {
		t.Fatal("negative f accepted")
	}
	ok[0] = true
	sw.FuseBatch(&b, 3, out, ok)
	if ok[0] {
		t.Fatal("f == n accepted")
	}
	var empty interval.Sweeper
	var eb interval.Batch
	eb.Reset(0)
	eb.Add(nil)
	ok[0] = true
	empty.FuseBatch(&eb, 0, out, ok)
	if ok[0] {
		t.Fatal("empty input fused")
	}
}

// TestScoreBatchZeroAllocs pins the whole batched scoring pass — Reset,
// candidate Adds, ScoreBatch — at 0 allocs/op once buffers are warm: the
// property the attacker's uncached plan search builds on.
func TestScoreBatchZeroAllocs(t *testing.T) {
	var sw interval.Sweeper
	sw.Preload([]interval.Interval{
		interval.MustCentered(0.1, 1), interval.MustCentered(-0.2, 2),
		interval.MustCentered(0.3, 3), interval.MustCentered(0, 0.5),
		interval.MustCentered(-0.1, 1.5), interval.MustCentered(0.2, 2.5),
	})
	cands := [][]interval.Interval{
		{interval.MustCentered(0.4, 1), interval.MustCentered(-0.3, 1)},
		{interval.MustCentered(0.1, 2), interval.MustCentered(0.2, 0.5)},
		{interval.MustCentered(-0.4, 3), interval.MustCentered(0, 1)},
	}
	var b interval.Batch
	widths := make([]float64, len(cands))
	ok := make([]bool, len(cands))
	run := func() {
		b.Reset(2)
		for _, c := range cands {
			b.Add(c)
		}
		sw.ScoreBatch(&b, 2, widths, ok)
		for i := range ok {
			if !ok[i] {
				t.Fatal("fusion unexpectedly empty")
			}
		}
	}
	forEachKernel(t, func(kern string) {
		run() // warm the batch, sentinel, and threshold-table buffers
		if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
			t.Fatalf("kernel=%s: batched scoring pass allocates %v per run, want 0", kern, allocs)
		}
	})
}

// TestFuseBatchKernelsForcedDispatch pins the dispatch seams the random
// trials reach only by luck: adversarial batch shapes checked under
// every kernel (equal endpoints, zero-width lanes, duplicate-heavy
// bases, empty base, k=0 all-sentinel lanes, batches straddling the
// four-lane assembly groups), plus the SetKernel API contract.
func TestFuseBatchKernelsForcedDispatch(t *testing.T) {
	for _, bad := range []string{"no-such-kernel", "unrolled"} {
		if err := interval.SetKernel(bad); err == nil {
			t.Fatalf("SetKernel accepted unknown kernel name %q", bad)
		}
	}
	// generic always; avx2 only where the CPU check passed, which needs
	// the amd64 assembly build.
	names := interval.KernelNames()
	avx2 := len(names) == 2 && names[1] == "avx2" && runtime.GOARCH == "amd64"
	if names[0] != "generic" || (len(names) > 1 && !avx2) {
		t.Fatalf("KernelNames() = %v, want [generic] or [generic avx2] (amd64 only)", names)
	}
	prev := interval.KernelName()
	if err := interval.SetKernel("avx2"); (err == nil) != avx2 {
		t.Fatalf("SetKernel(avx2) = %v with kernels %v", err, names)
	}
	if err := interval.SetKernel(prev); err != nil {
		t.Fatal(err)
	}

	var sw interval.Sweeper
	u := interval.MustNew(1, 1) // zero-width
	e := interval.MustNew(0, 2)
	dupBase := []interval.Interval{e, e, e, u, u}
	spread := []interval.Interval{
		interval.MustNew(-3, -1), interval.MustNew(-1.5, 0.5),
		interval.MustNew(0, 2), interval.MustNew(1.5, 4),
	}
	repeat := func(c []interval.Interval, n int) [][]interval.Interval {
		cands := make([][]interval.Interval, n)
		for i := range cands {
			cands[i] = c
		}
		return cands
	}
	cases := []struct {
		name  string
		base  []interval.Interval
		cands [][]interval.Interval
		k, f  int
	}{
		{"equal-endpoints", dupBase, repeat([]interval.Interval{e, e}, 9), 2, 2},
		{"zero-width-lanes", spread, repeat([]interval.Interval{u, u}, 5), 2, 1},
		{"empty-base-k2", nil, [][]interval.Interval{
			{e, u}, {u, u}, {e, e}, {interval.MustNew(-1, 0), interval.MustNew(0, 1)},
		}, 2, 1},
		{"k1-lanes", spread, [][]interval.Interval{{u}, {e}, {interval.MustNew(-2, 0)}}, 1, 2},
		{"all-sentinel-k0", spread, [][]interval.Interval{{}, {}, {}}, 0, 1},
		{"asm-group-straddle", dupBase, repeat([]interval.Interval{e, u}, 11), 2, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw.Preload(tc.base)
			checkBatchAgainstReference(t, &sw, tc.base, tc.cands, tc.k, tc.f)
		})
	}
}

// TestFuseBatchK1SegmentKernel pins the k=1 segment kernel's edge
// shapes against FuseWith and FuseNaive under every kernel: the tables
// it builds per (base, need) degenerate when the base is empty, when
// need-1 is 0 (every point is in S) or nb (S is the base's
// intersection), on duplicate and zero-width endpoints, and where a
// candidate touches a segment end exactly. Signed zeros compare equal
// but carry different bits, so those cases also require the same bits
// as the scalar scan. Lane order is the plan search's: the fallback
// lane first, then the candidates by ascending center.
func TestFuseBatchK1SegmentKernel(t *testing.T) {
	iv := interval.MustNew
	negz := math.Copysign(0, -1)
	u := iv(1, 1)
	e := iv(0, 2)
	spread := []interval.Interval{iv(-3, -1), iv(-1.5, 0.5), iv(0, 2), iv(1.5, 4)}
	lanes := func(ivs ...interval.Interval) [][]interval.Interval {
		cands := make([][]interval.Interval, len(ivs))
		for i, c := range ivs {
			cands[i] = []interval.Interval{c}
		}
		return cands
	}
	sweep := func(lo, hi, w, step float64) [][]interval.Interval {
		var ivs []interval.Interval
		for c := lo; c <= hi; c += step {
			ivs = append(ivs, iv(c-w/2, c+w/2))
		}
		return lanes(ivs...)
	}
	cases := []struct {
		name  string
		base  []interval.Interval
		cands [][]interval.Interval
		f     int
	}{
		{"empty-base", nil, lanes(e, u, iv(-1, 0)), 0},
		{"need-1-is-0", spread, sweep(-5, 6, 1, 0.5), len(spread)},
		{"f-is-0", spread, sweep(-5, 6, 3, 0.5), 0},
		{"f-is-0-disjoint-base", []interval.Interval{iv(0, 1), iv(2, 3)}, lanes(iv(0, 3), u), 0},
		{"duplicates", []interval.Interval{e, e, e, u, u}, lanes(e, u, iv(1, 3), iv(-1, 1), iv(2, 2)), 2},
		{"zero-width-base", []interval.Interval{u, u, iv(2, 2), iv(3, 3)}, lanes(u, iv(0, 4), iv(1, 2), iv(2, 3)), 1},
		// S for f=2 over spread is [-1.5,-1] ∪ [0,0.5] ∪ [1.5,2]; lanes
		// start or end exactly on those segment ends.
		{"touching-segment-ends", spread, lanes(iv(-1, -0.5), iv(-2, -1.5), iv(0.5, 1.5), iv(-0.5, 0),
			iv(2, 3), iv(-1.5, -1.5), iv(0.5, 0.5), iv(-4, 1.5)), 2},
		// For f=1 the base never covers a point 3 times: S and A are empty.
		{"empty-segments", spread, lanes(iv(-1, -0.5), iv(0.5, 1.5), iv(2, 3), iv(-4, -3)), 1},
		{"signed-zeros", []interval.Interval{iv(negz, 1), iv(0, 2), iv(-1, negz), iv(-1, 0)},
			lanes(iv(negz, 0), iv(0, negz), iv(negz, negz), iv(0, 0), iv(-1, 0), iv(negz, 1), iv(-2, negz)), 2},
		{"signed-zeros-need-1", []interval.Interval{iv(negz, 1), iv(-1, 0)},
			lanes(iv(negz, negz), iv(0, 0), iv(-2, -1), iv(1, 3)), 2},
		// Zero ties the scan breaks by copy order: a base copy (lo), the
		// candidate's lo after equal base copies, the candidate's hi.
		{"signed-zeros-base-copy", []interval.Interval{iv(0, 0), iv(negz, 1), iv(0, 1)}, lanes(iv(-1, 1)), 1},
		{"signed-zeros-candidate-lo", []interval.Interval{iv(negz, negz), iv(negz, negz), iv(negz, 0)}, lanes(iv(0, negz)), 0},
		{"signed-zeros-candidate-hi", []interval.Interval{iv(negz, negz), iv(-1, negz)}, lanes(iv(-1, 0)), 0},
		{"fallback-lane-first", spread, append(lanes(iv(1.25, 1.75)), sweep(-3, 3, 1, 0.25)...), 2},
	}
	var sw interval.Sweeper
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw.Preload(tc.base)
			checkBatchAgainstReference(t, &sw, tc.base, tc.cands, 1, tc.f)
		})
	}
}

// TestFuseBatchK1SignedZeroBits draws bases and single-placement lanes
// from endpoints in {-1, -0, +0, 1}, where most results are ties
// between zeros of both signs, and holds the k=1 path of every kernel
// to the scalar scan's bits.
func TestFuseBatchK1SignedZeroBits(t *testing.T) {
	rng := rand.New(rand.NewSource(0))
	vals := []float64{-1, math.Copysign(0, -1), 0, 1}
	draw := func(n int) []interval.Interval {
		ivs := make([]interval.Interval, n)
		for i := range ivs {
			a, b := vals[rng.Intn(4)], vals[rng.Intn(4)]
			if a > b {
				a, b = b, a
			}
			ivs[i] = interval.Interval{Lo: a, Hi: b}
		}
		return ivs
	}
	var sw interval.Sweeper
	for trial := 0; trial < 400; trial++ {
		base := draw(rng.Intn(6))
		cands := make([][]interval.Interval, 1+rng.Intn(9))
		for i := range cands {
			cands[i] = draw(1)
		}
		sw.Preload(base)
		checkBatchAgainstReference(t, &sw, base, cands, 1, rng.Intn(len(base)+1))
	}
}

// FuzzFuseBatch drives batch ≡ scalar ≡ FuseNaive with fuzzed interval
// sets: the byte string decodes into (base, candidate set, f), with the
// candidate count taken from the data so batches of 1..6 are covered.
func FuzzFuseBatch(f *testing.F) {
	f.Add([]byte{3, 2, 1, 2, 10, 20, 5, 15, 12, 30, 0, 8, 40, 50})
	f.Add([]byte{1, 1, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{0, 2, 1, 3, 7, 9, 250, 4, 17, 2, 90, 6})
	// Adversarial lane shapes for the dispatch kernels (committed in
	// testdata/fuzz/FuzzFuseBatch too): every endpoint equal, all
	// zero-width intervals, a k=1 pack, and a constant candidate-only
	// lane over an empty base.
	f.Add([]byte{4, 1, 1, 3, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4})
	f.Add([]byte{3, 1, 2, 1, 250, 0, 10, 16, 4, 0, 20, 32, 8, 0, 16, 48, 12, 0})
	f.Add([]byte{5, 0, 3, 4, 240, 7, 16, 15, 232, 0, 8, 4, 252, 16, 0, 12, 248, 8, 4, 0, 12, 20, 244, 6})
	f.Add([]byte{0, 1, 0, 0, 100, 4, 100, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nBase := int(data[0]) % 7
		k := 1 + int(data[1])%3
		fb := int(data[2]) % (nBase + k)
		nCands := 1 + int(data[3])%6
		decode := func(j int) interval.Interval {
			lo := float64(int8(data[(4+2*j)%len(data)])) / 4
			w := float64(data[(5+2*j)%len(data)]%16) / 4
			return interval.Interval{Lo: lo, Hi: lo + w}
		}
		base := make([]interval.Interval, nBase)
		for j := range base {
			base[j] = decode(j)
		}
		cands := make([][]interval.Interval, nCands)
		for i := range cands {
			cands[i] = make([]interval.Interval, k)
			for j := range cands[i] {
				cands[i][j] = decode(nBase + i*k + j)
			}
		}
		var sw interval.Sweeper
		sw.Preload(base)
		checkBatchAgainstReference(t, &sw, base, cands, k, fb)
	})
}
