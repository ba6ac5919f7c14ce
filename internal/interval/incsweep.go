package interval

import "slices"

// This file is the package's Marzullo machinery: Coverage (sweep.go)
// answers point-coverage queries over one fixed interval set, while
// Sweeper answers "what is the fusion interval of BASE ∪ {a few
// candidate intervals}?" — repeatedly, for one preloaded base set and
// many small candidate sets, without re-sorting or allocating per query.
// It is the one production Marzullo scan: fusion.Fuse, the round
// simulator (Preload the round's intervals, FuseWith no extras) and the
// attacker's plan search all fuse through it.

// Sweeper evaluates Marzullo fusion over a fixed preloaded base set of
// intervals plus a small per-query set of extra intervals. Preload sorts
// the base endpoints once (O(n log n)); every subsequent FuseWith merges
// the 2×k endpoints of the k extra intervals into the presorted arrays
// on the fly, so each query costs O(n + k log k) with zero heap
// allocations — against the O((n+k) log (n+k)) sort or the O((n+k)^2)
// endpoint scan a from-scratch evaluation pays.
//
// It is also the kernel behind the optimal attacker's plan search: the
// fixed intervals of one decision context (everything seen on the bus
// plus one imagined completion of the unseen sensors) are preloaded
// once, and every candidate placement of the attacker's own intervals
// is scored through FuseWith. The zero value is an empty base; a
// Sweeper is not safe for concurrent use.
type Sweeper struct {
	los, his []float64 // base endpoints, each sorted ascending
	// extLos/extHis hold the sorted extra endpoints of the current
	// query, reused across queries.
	extLos, extHis []float64
	// slos/shis are the sentinel-guarded copies of los/his the batch
	// kernel (batch.go) walks; sclean marks them current. Rebuilt
	// lazily by ensureSentinels after any base mutation.
	slos, shis []float64
	sclean     bool
	// thrLo/thrHi are the AVX2 kernel's qualification tables
	// (kernel_amd64.go): a base endpoint qualifies for the fusion
	// extremes iff the candidate coverage contribution d there satisfies
	// d > thr. Valid for coverage threshold kneed; kclean marks them
	// current. Rebuilt lazily by ensureKernelTables after any base
	// mutation or need change, with knegz: the base holds a -0.
	thrLo, thrHi []int64
	kclean       bool
	kneed        int
	knegz        bool
	// segs and aLo/aHi are the k=1 segment kernel's tables (batch.go):
	// the closed segments of {x : cov_base(x) >= gneed-1} as (start,
	// end) pairs and the hull of {x : cov_base(x) >= gneed}. gclean
	// marks them current; rebuilt lazily by ensureSegments after any
	// base mutation or need change.
	segs     []float64
	aLo, aHi float64
	gclean   bool
	gneed    int
}

// Preload replaces the base set with ivs, reusing internal buffers.
// Invalid intervals (Lo > Hi) must not be passed. slices.Sort
// insertion-sorts (stably) up to 12 endpoints, the size of every hot
// path, and stays O(n log n) for large one-shot fusions.
func (s *Sweeper) Preload(ivs []Interval) {
	s.sclean = false
	s.kclean = false
	s.gclean = false
	s.los = slices.Grow(s.los[:0], len(ivs))
	s.his = slices.Grow(s.his[:0], len(ivs))
	for _, iv := range ivs {
		s.los = append(s.los, iv.Lo)
		s.his = append(s.his, iv.Hi)
	}
	slices.Sort(s.los)
	slices.Sort(s.his)
}

// PreloadFrom replaces the base set with a copy of src's: Preload
// without the sort, for callers that build many bases from one sorted
// part (the plan search's worlds: one decision's seen intervals,
// preloaded once, then each world's Adds).
func (s *Sweeper) PreloadFrom(src *Sweeper) {
	s.sclean = false
	s.kclean = false
	s.gclean = false
	s.los = append(s.los[:0], src.los...)
	s.his = append(s.his[:0], src.his...)
}

// Add appends one interval to the base set without a full Preload.
func (s *Sweeper) Add(iv Interval) {
	s.sclean = false
	s.kclean = false
	s.gclean = false
	s.los = InsertSorted(s.los, iv.Lo)
	s.his = InsertSorted(s.his, iv.Hi)
}

// Len returns the number of base intervals.
func (s *Sweeper) Len() int { return len(s.los) }

// InsertSorted appends x to a sorted slice and bubbles it into place,
// keeping the slice sorted. The endpoint sets of this package's hot
// paths are small (the paper's n is single-digit), so binary search +
// copy would only add constants; a backward scan is exact and
// branch-cheap.
func InsertSorted(sorted []float64, x float64) []float64 {
	sorted = append(sorted, x)
	for i := len(sorted) - 1; i > 0 && sorted[i-1] > x; i-- {
		sorted[i-1], sorted[i] = sorted[i], sorted[i-1]
	}
	return sorted
}

// FuseWith returns the Marzullo fusion interval of base ∪ extra with
// fault bound f over the combined n = Len()+len(extra) intervals: the
// span from the smallest point covered by at least n-f of them to the
// largest such point. ok is false when no point reaches that coverage
// (the condition fusion.ErrNoFusion reports) or when f is out of range.
// The result has the same values as the reference fusion.FuseNaive
// over the concatenated slice — the differential tests in
// internal/fusion pin that equivalence on random inputs. The bits can
// differ only in the sign of a zero endpoint: on a tie between -0 and
// +0 this scan returns the copy its merge order reaches first, and
// FuseNaive the first qualifying endpoint in input order. FuseWith's
// bits are the ones every batch kernel reproduces.
func (s *Sweeper) FuseWith(extra []Interval, f int) (Interval, bool) {
	s.extLos = s.extLos[:0]
	s.extHis = s.extHis[:0]
	for _, iv := range extra {
		s.extLos = InsertSorted(s.extLos, iv.Lo)
		s.extHis = InsertSorted(s.extHis, iv.Hi)
	}
	return s.fuseSorted(s.extLos, s.extHis, f)
}

// fuseSorted runs the merged two-pointer endpoint scan. Coverage of a
// point x by closed intervals is #{Lo <= x} - #{Hi < x}; it rises only
// at Lo endpoints and falls only past Hi endpoints, so the extremes of
// the (n-f)-covered set are a Lo endpoint (minimum) and a Hi endpoint
// (maximum). Both scans walk the implicit merge of the presorted base
// and extra arrays.
func (s *Sweeper) fuseSorted(extLos, extHis []float64, f int) (Interval, bool) {
	n := len(s.los) + len(extLos)
	need := n - f
	if n == 0 || f < 0 || need <= 0 {
		return Interval{}, false
	}
	lo, haveLo := 0.0, false
	// Ascending scan over the merged Lo endpoints; bj/ej track how many
	// base/extra Hi endpoints lie strictly below the current point.
	bi, ei, bj, ej := 0, 0, 0, 0
	for c := 0; c < n; c++ {
		var x float64
		if bi < len(s.los) && (ei >= len(extLos) || s.los[bi] <= extLos[ei]) {
			x = s.los[bi]
			bi++
		} else {
			x = extLos[ei]
			ei++
		}
		for bj < len(s.his) && s.his[bj] < x {
			bj++
		}
		for ej < len(extHis) && extHis[ej] < x {
			ej++
		}
		if (c+1)-(bj+ej) >= need {
			lo, haveLo = x, true
			break
		}
	}
	if !haveLo {
		return Interval{}, false
	}
	// Descending scan over the merged Hi endpoints; bj/ej now track how
	// many base/extra Lo endpoints lie strictly above the current point.
	hi := 0.0
	bi, ei = len(s.his)-1, len(extHis)-1
	bj, ej = len(s.los)-1, len(extLos)-1
	for c := 0; c < n; c++ {
		var x float64
		if bi >= 0 && (ei < 0 || s.his[bi] >= extHis[ei]) {
			x = s.his[bi]
			bi--
		} else {
			x = extHis[ei]
			ei--
		}
		for bj >= 0 && s.los[bj] > x {
			bj--
		}
		for ej >= 0 && extLos[ej] > x {
			ej--
		}
		// Coverage at x is #{Lo <= x} - #{Hi < x}. Los <= x is exactly
		// (bj+1)+(ej+1); the c+1 His consumed so far are all >= x, so
		// #{Hi < x} <= n-(c+1), making the condition a lower bound on
		// coverage that never overestimates. It is exact at the
		// lowest-index copy of each distinct x, which the scan reaches
		// before moving to the next value, so duplicates are handled
		// exactly.
		if (bj+1+ej+1)-(n-(c+1)) >= need {
			hi = x
			break
		}
	}
	return Interval{Lo: lo, Hi: hi}, true
}

// WidthWith returns the width of FuseWith's fusion interval — the
// attacker's objective |S_{N,f}| for one candidate placement.
func (s *Sweeper) WidthWith(extra []Interval, f int) (float64, bool) {
	iv, ok := s.FuseWith(extra, f)
	if !ok {
		return 0, false
	}
	return iv.Width(), true
}
