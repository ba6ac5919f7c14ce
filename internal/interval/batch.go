package interval

// This file is the batched half of the incremental Marzullo machinery:
// FuseWith (incsweep.go) scores one candidate interval-set per call;
// Batch + Sweeper.FuseBatch/ScoreBatch score MANY candidate sets in one
// call against the same preloaded base. The attacker's plan search is
// the driving workload: thousands of candidate placements, each scored
// against hundreds of preloaded worlds — the innermost product of the
// whole campaign. Batching buys three constant factors the scalar path
// cannot: the candidate endpoints are laid out flat (SoA) and walked
// sequentially, the base endpoint arrays stay hot across the entire
// candidate sweep, and the merge loop itself is branch-lean — sentinel
// endpoints replace the per-iteration exhaustion tests, so every pick
// is a single predictable float compare.
//
// All of it is pure selection, no arithmetic: the kernel returns
// bit-identical results to FuseWith and fusion.Fuse, pinned by the
// differential and fuzz tests in internal/fusion (FuzzFuseBatch).

import "math"

// Batch is a flat, reusable set of candidate interval-sets for
// Sweeper.FuseBatch/ScoreBatch. Every candidate holds exactly K
// intervals; candidate i's 2K endpoints are stored pre-sorted in two
// structure-of-arrays segments, each guarded by -Inf/+Inf sentinels so
// the batch kernel's merge loop needs no exhaustion branches. Sorting
// happens once per Add — once per candidate SET — not once per
// (candidate, base) query the way repeated FuseWith calls would pay.
//
// Endpoints must be finite (the sentinels reserve ±Inf). The zero
// value is an empty batch with K 0; Reset both clears and sets K. A
// Batch is not safe for concurrent use.
type Batch struct {
	k        int
	los, his []float64 // stride k+2 segments: -Inf, sorted endpoints, +Inf
	n        int
}

// Reset clears the batch and fixes the per-candidate interval count to
// k, reusing the backing arrays. k must be non-negative.
func (b *Batch) Reset(k int) {
	if k < 0 {
		panic("interval: negative Batch interval count")
	}
	b.k = k
	b.los = b.los[:0]
	b.his = b.his[:0]
	b.n = 0
}

// K returns the per-candidate interval count.
func (b *Batch) K() int { return b.k }

// Len returns the number of candidates added since the last Reset.
func (b *Batch) Len() int { return b.n }

// Add appends one candidate: exactly K intervals, finite endpoints,
// Lo <= Hi. The endpoints are insertion-sorted into the candidate's
// flat segment (K is small on every hot path, so the quadratic sort is
// the cheap one); nothing is allocated beyond amortized growth of the
// backing arrays.
func (b *Batch) Add(ivs []Interval) {
	if len(ivs) != b.k {
		panic("interval: Batch.Add with wrong interval count")
	}
	// The dominant batch shapes (k <= 2: the attacker places one or two
	// intervals) collapse to a single bounded append — at most one
	// compare-and-swap does all the sorting.
	switch b.k {
	case 1:
		b.los = append(b.los, math.Inf(-1), ivs[0].Lo, math.Inf(1))
		b.his = append(b.his, math.Inf(-1), ivs[0].Hi, math.Inf(1))
		b.n++
		return
	case 2:
		lo0, lo1 := ivs[0].Lo, ivs[1].Lo
		if lo1 < lo0 {
			lo0, lo1 = lo1, lo0
		}
		hi0, hi1 := ivs[0].Hi, ivs[1].Hi
		if hi1 < hi0 {
			hi0, hi1 = hi1, hi0
		}
		b.los = append(b.los, math.Inf(-1), lo0, lo1, math.Inf(1))
		b.his = append(b.his, math.Inf(-1), hi0, hi1, math.Inf(1))
		b.n++
		return
	}
	base := len(b.los) + 1 // first real endpoint slot, after the -Inf sentinel
	b.los = append(b.los, math.Inf(-1))
	b.his = append(b.his, math.Inf(-1))
	for _, iv := range ivs {
		b.los = insertSortedFrom(b.los, base, iv.Lo)
		b.his = insertSortedFrom(b.his, base, iv.Hi)
	}
	b.los = append(b.los, math.Inf(1))
	b.his = append(b.his, math.Inf(1))
	b.n++
}

// insertSortedFrom appends x and bubbles it into place without moving
// past index from — InsertSorted confined to the current candidate's
// segment of the flat array.
func insertSortedFrom(sorted []float64, from int, x float64) []float64 {
	sorted = append(sorted, x)
	for i := len(sorted) - 1; i > from && sorted[i-1] > x; i-- {
		sorted[i-1], sorted[i] = sorted[i], sorted[i-1]
	}
	return sorted
}

// FuseBatch computes the Marzullo fusion interval of base ∪ candidate
// for every candidate in b, with fault bound f over the combined
// n = Len()+b.K() intervals, writing candidate i's result to out[i] and
// ok[i] (false exactly when FuseWith would report no fusion). out and
// ok must have length b.Len(). Results are bit-identical to calling
// FuseWith per candidate; only the constant factors differ.
func (s *Sweeper) FuseBatch(b *Batch, f int, out []Interval, ok []bool) {
	if len(out) != b.n || len(ok) != b.n {
		panic("interval: FuseBatch output length mismatch")
	}
	s.fuseBatch(b, f, out, nil, ok)
}

// ScoreBatch is FuseBatch reduced to the attacker's objective: widths[i]
// receives the fusion width of candidate i (unspecified when ok[i] is
// false). widths and ok must have length b.Len().
func (s *Sweeper) ScoreBatch(b *Batch, f int, widths []float64, ok []bool) {
	if len(widths) != b.n || len(ok) != b.n {
		panic("interval: ScoreBatch output length mismatch")
	}
	s.fuseBatch(b, f, nil, widths, ok)
}

// fuseBatch scores every lane of b; exactly one of out (FuseBatch) and
// widths (ScoreBatch) is non-nil. Under the avx2 kernel, k=2 lanes go
// to the assembly in groups of four (kernel_amd64.go); every other lane
// — any k, and the n mod 4 tail — runs through fuseMerged.
func (s *Sweeper) fuseBatch(b *Batch, f int, out []Interval, widths []float64, ok []bool) {
	nb := len(s.los)
	n := nb + b.k
	need := n - f
	if n == 0 || f < 0 || need <= 0 {
		clear(out)
		clear(widths)
		clear(ok)
		return
	}
	i := 0
	if b.k == 2 && activeKernel == kernelAVX2 {
		i = s.fuseLanesAVX2(b, need, out, widths, ok)
	}
	if i == b.n { // the assembly took every lane: no sentinel copies needed
		return
	}
	s.ensureSentinels()
	blos, bhis := s.slos, s.shis
	stride := b.k + 2
	for ; i < b.n; i++ {
		seg := i * stride
		iv, o := fuseMerged(blos, bhis,
			b.los[seg:seg+stride], b.his[seg:seg+stride], n, need, nb, b.k)
		if out != nil {
			out[i] = iv
		} else {
			widths[i] = iv.Hi - iv.Lo
		}
		ok[i] = o
	}
}

// ensureSentinels (re)builds the sentinel-guarded copies of the base
// endpoint arrays the batch kernel walks: -Inf, the sorted endpoints,
// +Inf. Rebuilt lazily after any Preload/Add, so scalar-only users
// never pay for them.
func (s *Sweeper) ensureSentinels() {
	if s.sclean {
		return
	}
	s.slos = append(s.slos[:0], math.Inf(-1))
	s.slos = append(s.slos, s.los...)
	s.slos = append(s.slos, math.Inf(1))
	s.shis = append(s.shis[:0], math.Inf(-1))
	s.shis = append(s.shis, s.his...)
	s.shis = append(s.shis, math.Inf(1))
	s.sclean = true
}

// fuseMerged is the branch-tuned core: the same two-pointer coverage
// scan as Sweeper.fuseSorted, walked over sentinel-guarded arrays. All
// four slices carry a -Inf at index 0 and a +Inf at the end, so the
// exhaustion tests of the scalar kernel (three boundary comparisons per
// pick) collapse into the value comparison itself: an exhausted side
// presents ±Inf and loses every pick. The slices are hoisted into
// locals once; the inner counter loops advance over monotone data and
// terminate on the sentinels. Tie-breaking (base before candidate on
// equal endpoints) matches the scalar kernel exactly, so the selected
// endpoints — and therefore the returned bits — are identical.
//
// nb and k are the real (sentinel-free) base and candidate interval
// counts; n = nb+k and need = n-f are precomputed by the callers.
func fuseMerged(blos, bhis, clos, chis []float64, n, need, nb, k int) (Interval, bool) {
	// Ascending scan over the merged Lo endpoints. bi/ei index the next
	// unconsumed base/candidate Lo (1-based past the -Inf sentinel);
	// bj/ej are the first base/candidate Hi not strictly below the
	// current point, so the counts of His < x are bj-1 and ej-1.
	bi, ei := 1, 1
	bj, ej := 1, 1
	lo, haveLo := 0.0, false
	for c := 1; c <= n; c++ {
		x := clos[ei]
		if blos[bi] <= x {
			x = blos[bi]
			bi++
		} else {
			ei++
		}
		for bhis[bj] < x {
			bj++
		}
		for chis[ej] < x {
			ej++
		}
		// Coverage at x: c Los consumed are all <= x; His < x are
		// (bj-1)+(ej-1).
		if c-(bj+ej-2) >= need {
			lo, haveLo = x, true
			break
		}
	}
	if !haveLo {
		return Interval{}, false
	}
	// Descending scan over the merged Hi endpoints; bj/ej now count the
	// base/candidate Los <= x directly (indices 1..bj are <= x).
	bi, ei = nb, k
	bj, ej = nb, k
	hi := 0.0
	for c := 1; c <= n; c++ {
		x := chis[ei]
		if bhis[bi] >= x {
			x = bhis[bi]
			bi--
		} else {
			ei--
		}
		for blos[bj] > x {
			bj--
		}
		for clos[ej] > x {
			ej--
		}
		// Coverage lower bound at x: Los <= x are bj+ej; the c His
		// consumed so far are all >= x, so His < x <= n-c. Exact at the
		// lowest-index copy of each distinct x — the same duplicate
		// handling as the scalar reverse scan.
		if (bj+ej)-(n-c) >= need {
			hi = x
			break
		}
	}
	return Interval{Lo: lo, Hi: hi}, true
}
