package attack

import (
	"math"
	"math/rand"
	"slices"

	"sensorfusion/internal/interval"
)

// Optimal implements the attack policies of Section III-A as one
// strategy:
//
//   - With full knowledge (no unseen correct intervals) it solves problem
//     (1): maximize |S_{N,f}| over the placements of her intervals subject
//     to stealth, by exhaustive search over discretized candidates.
//   - With partial knowledge it solves problem (2): maximize the expected
//     |S_{N,f}| over all possible placements of the unseen correct
//     intervals (and the unknown true value within Delta), enumerating
//     the discretized placement space exactly when small and falling back
//     to Monte Carlo sampling when large.
//
// Plans are cached under two independent 64-bit hashes of the
// canonicalized, quantized context (hashContext) in an open-addressing
// table whose values live in one chunked arena (planMemo), so both cache
// hits AND the steady-state miss path are allocation-free — table and
// arena growth is the only allocation left, amortized to nothing over a
// sweep. Full-knowledge contexts on a dyadic grid are keyed relative to
// Delta, so every translated copy of a decision replays one plan. The
// search itself is batched: the unseen-completion worlds are enumerated
// once per context into a flat arena and preloaded into incremental
// interval.Sweepers, every stealthy candidate tuple is packed once into
// an interval.Batch, and each world scores the whole batch in a single
// branch-lean ScoreBatch pass — no per-candidate sorting, appending, or
// allocation, and no per-(candidate, world) call overhead.
//
// Single-world decisions that place two intervals — above all the
// Descending schedule's full-knowledge attacker with n = 5, fa = 2 and
// three seen intervals, the campaign's dominant decision, unique per
// round so the memo never absorbs it — take an exact branch-and-bound
// instead (searchRows): a per-row bound on the fusion width lets it
// score about one dim-0 row per decision instead of all of them
// (about 25 on a step-2 campaign sample), and a second, enumeration-order
// pass returns exactly the tuple the batched search's strict argmax
// selects. The batched search (searchBatched) serves every other shape
// and is the row search's test oracle.
//
// An Optimal is not safe for concurrent use (the campaign engine builds
// one per task); the zero value works but never caches — use NewOptimal.
type Optimal struct {
	memo *planMemo
	// MaxTuples caps the number of candidate placement tuples examined
	// per decision; the candidate grid is thinned (step doubled) until
	// the cap holds. Zero selects a default.
	MaxTuples int
	// MemoCap bounds the plan cache. Continuous-valued workloads (the
	// case study) produce unique contexts every round; the cap keeps the
	// cache from growing without bound. Zero selects a default.
	MemoCap int

	// Scratch reused across Plan calls; all per-decision state lives
	// here so a steady-state cache miss allocates nothing and a cache
	// hit allocates nothing.
	eval       evaluator
	seenSorted []interval.Interval
	uwSorted   []float64
	placed     []interval.Interval
	fallback   []interval.Interval
	sets       [][]float64
	setBuf     [][]float64
	// Batched-search scratch: the stealthy tuples of one decision, both
	// slot-ordered (tuples, the shape a plan must have) and
	// endpoint-sorted (batch, the shape the kernel wants), plus the
	// per-tuple score accumulators.
	batch  interval.Batch
	tuples []interval.Interval
	idx    []int
	sums   []float64
	counts []int
	widths []float64
	oks    []bool
	// Active-mode stealth classification (pruneActive): the OwnSent
	// intervals still needing a per-tuple check with their precomputed
	// pool skips, and the per-dimension decided flags for surviving
	// candidate centers.
	sentIvs    []interval.Interval
	sentSkip   []int
	decided    [][]bool
	decidedBuf [][]bool
	// Witness segments for the k == 2 residual fast path: per dimension,
	// prefix offsets into witArena bracketing each undecided center's
	// segments (empty range for decided centers).
	witOff    [][]int
	witOffBuf [][]int
	witArena  []interval.Interval
	witPts    []float64
	// passive records the current decision's stealth regime (set by
	// prepare, read by the per-tuple residual check).
	passive bool
	// Row-search scratch (searchRows): the rows that can fuse, in
	// visiting order, and the columns of the row batch being scored.
	// Both are sized to the largest decision seen, so they grow only a
	// few times per Optimal.
	rows []rowState
	cols []int
	// out receives a shifted memo hit: the stored plan plus the shift.
	out []interval.Interval
}

// NewOptimal returns an Optimal strategy with an empty plan cache.
func NewOptimal() *Optimal { return &Optimal{memo: &planMemo{}} }

// Name returns "optimal".
func (o *Optimal) Name() string { return "optimal" }

const (
	defaultMaxTuples = 4000
	defaultMemoCap   = 1 << 17
)

// Plan implements Strategy. The returned slice is owned by the strategy
// and is only valid until the next Plan call; callers must copy what
// they retain and must not modify it. A miss returns the search's own
// scratch; a hit on an absolute key returns the memo arena's copy, and a
// hit on a shifted key writes the stored plan plus the shift into a
// reused buffer — all allocation-free.
func (o *Optimal) Plan(ctx Context) []interval.Interval {
	if err := ctx.Validate(); err != nil {
		return nil
	}
	if o.memo == nil {
		return o.plan(ctx)
	}
	key := o.hashContext(ctx)
	if cached, ok := o.memo.get(key.hash, key.confirm); ok {
		if !key.shifted {
			return cached
		}
		o.out = o.out[:0]
		for _, iv := range cached {
			o.out = append(o.out, interval.Interval{Lo: iv.Lo + key.shift, Hi: iv.Hi + key.shift})
		}
		return o.out
	}
	plan := o.plan(ctx)
	memoCap := o.MemoCap
	if memoCap <= 0 {
		memoCap = defaultMemoCap
	}
	if o.memo.count < memoCap {
		o.memo.insert(key.hash, key.confirm, plan, key.shift)
	}
	return plan
}

func (o *Optimal) plan(ctx Context) []interval.Interval {
	cands, fallback, ok := o.prepare(ctx)
	if !ok {
		return fallback
	}
	// One world and two placements: the exact row search. It needs
	// m-1 = N-F-1 >= 1, or the hull of the (m-1)-covered points — its
	// row bound — would be the whole line.
	if len(ctx.OwnWidths) == 2 && len(o.eval.sweeps) == 1 && ctx.N-ctx.F-1 > 0 {
		return o.searchRows(ctx, cands, fallback)
	}
	return o.searchBatched(ctx, cands, fallback)
}

// prepare runs the per-decision setup both searches share: the fallback
// plan (correct readings centered on Delta, built into a reused buffer —
// correctFallback's shape without its allocation), the candidate center
// sets, the active-mode stealth triage, and the evaluator's worlds. ok
// is false when no candidate tuple can be stealthy; the decision then
// collapses to the fallback.
func (o *Optimal) prepare(ctx Context) (cands [][]float64, fallback []interval.Interval, ok bool) {
	c := ctx.Delta.Center()
	o.fallback = o.fallback[:0]
	for _, w := range ctx.OwnWidths {
		o.fallback = append(o.fallback, interval.MustCentered(c, w))
	}
	fallback = o.fallback
	cands = o.candidateSets(ctx)
	if cands == nil {
		return nil, fallback, false
	}
	// Passive-mode stealth is a per-dimension predicate and
	// candidateSets has already pruned each dimension down to the
	// placements that satisfy it, so every passive tuple is stealthy by
	// construction. Active-mode stealth couples the dimensions, but most
	// of it still factors: pruneActive classifies every candidate center
	// against the seen-only coverage once per decision, pruning hopeless
	// placements and marking decided ones, so the per-tuple residual is
	// usually empty.
	o.passive = ctx.Mode() == Passive
	if !o.passive && !o.pruneActive(ctx, cands, ctx.N-ctx.F-1) {
		return nil, fallback, false // some stealth obligation is unsatisfiable
	}
	o.eval.init(ctx)
	k := len(ctx.OwnWidths)
	if cap(o.placed) < k {
		o.placed = make([]interval.Interval, k)
		o.idx = make([]int, k)
	}
	return cands, fallback, true
}

// place writes the tuple of candidate centers idx, of widths widths, into
// placed.
func place(widths []float64, cands [][]float64, idx []int, placed []interval.Interval) {
	for d, i := range idx {
		w := widths[d]
		cc := cands[d][i]
		placed[d] = interval.Interval{Lo: cc - w/2, Hi: cc + w/2}
	}
}

// stealthy reports whether the tuple placed (candidate indices idx)
// passes StealthOK, given prepare's triage. Passive tuples pass by
// construction. Active ones re-check only the obligations pruneActive
// left undecided, against the full pool, with skips resolved up front;
// the conjunction is exactly StealthOK's, since the decided parts were
// proven per center.
func (o *Optimal) stealthy(seen []interval.Interval, need int, placed []interval.Interval, idx []int) bool {
	if o.passive {
		return true
	}
	pool := stealthPool{seen: seen, placed: placed}
	for si, a := range o.sentIvs {
		skip := o.sentSkip[si]
		if skip < 0 {
			skip = pool.skipOf(a)
		}
		if !pool.windowReachesSkip(a, skip, need) {
			return false
		}
	}
	// With exactly two placements the only co-placement that can help an
	// undecided center is the other dimension's interval, and pruneActive
	// precomputed where that help suffices (witness segments); the
	// residual is then a couple of overlap compares.
	fastWit := len(placed) == 2
	for d, i := range idx {
		if o.decided[d][i] {
			continue
		}
		if !fastWit {
			if !pool.windowReachesSkip(placed[d], len(seen)+d, need) {
				return false
			}
			continue
		}
		off := o.witOff[d]
		other := placed[1-d]
		hit := false
		for _, s := range o.witArena[off[i]:off[i+1]] {
			if s.Lo <= other.Hi && other.Lo <= s.Hi {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// searchBatched is the general search: every stealthy candidate tuple,
// scored in every world by one ScoreBatch pass per world, and the strict
// argmax of the expected width in enumeration order. It serves every
// context searchRows does not, and is searchRows' test oracle.
func (o *Optimal) searchBatched(ctx Context, cands [][]float64, fallback []interval.Interval) []interval.Interval {
	e := &o.eval
	k := len(ctx.OwnWidths)
	need := ctx.N - ctx.F - 1
	placed, idx := o.placed[:k], o.idx[:k]

	// Enumerate the stealthy candidate tuples — in the lexicographic
	// order the recursive search used (dimension 0 slowest), which the
	// strict argmax below depends on — into the batch (endpoint-sorted,
	// for the kernel) and the tuples arena (slot-ordered, the shape a
	// plan must have).
	o.batch.Reset(k)
	o.tuples = o.tuples[:0]
	// The fallback (when stealthy) rides the batch as lane 0, scored by
	// the same kernel pass as the candidate tuples instead of a separate
	// scalar expectedWidth call; the argmax below seeds its baseline from
	// this lane and never selects it (ties keep the fallback, exactly like
	// the old strict `s > bestScore` comparison against a prescored
	// baseline).
	fallbackLane := 0
	if ctx.StealthOK(fallback) {
		fallbackLane = 1
		o.batch.Add(fallback)
		o.tuples = append(o.tuples, fallback...)
	}
	for d := range idx {
		idx[d] = 0
	}
	for {
		place(ctx.OwnWidths, cands, idx, placed)
		if o.stealthy(ctx.Seen, need, placed, idx) {
			o.batch.Add(placed)
			o.tuples = append(o.tuples, placed...)
		}
		d := k - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < len(cands[d]) {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			break
		}
	}
	nb := o.batch.Len()
	if nb == fallbackLane {
		return fallback // no stealthy candidate tuple: nothing to score
	}

	// Score the whole batch world by world. Per tuple, the widths
	// accumulate in world-enumeration order — exactly the summation
	// order a per-tuple scalar scoring loop would use, so the scores
	// (and the plan the argmax selects) are bit-identical to the scalar
	// search.
	o.sums = resizeFloats(o.sums, nb)
	o.counts = resizeInts(o.counts, nb)
	widths, oks := o.scratchScores(nb)
	for i := 0; i < nb; i++ {
		o.sums[i] = 0
		o.counts[i] = 0
	}
	for w := range e.sweeps {
		e.sweeps[w].ScoreBatch(&o.batch, e.f, widths, oks)
		for i, ok := range oks {
			if ok {
				o.sums[i] += widths[i]
				o.counts[i]++
			}
		}
	}
	// Strict argmax in enumeration order — identical tie-breaking to the
	// sequential `s > bestScore` update of the recursive search. Tuples
	// with no fusing world score -Inf there and can never win; skipping
	// them is the same comparison. The baseline comes from the fallback's
	// lane (no fusing world ≡ the -Inf expectedWidth returned): same
	// world-order summation, same bits.
	bestScore := math.Inf(-1)
	if fallbackLane == 1 && o.counts[0] > 0 {
		bestScore = o.sums[0] / float64(o.counts[0])
	}
	bestIdx := -1
	for i := fallbackLane; i < nb; i++ {
		if o.counts[i] == 0 {
			continue
		}
		if s := o.sums[i] / float64(o.counts[i]); s > bestScore {
			bestScore, bestIdx = s, i
		}
	}
	if bestIdx < 0 {
		return fallback
	}
	return o.tuples[bestIdx*k : (bestIdx+1)*k]
}

// rowState is searchRows' record of one dim-0 row: its upper bound on
// the fusion width of any tuple in the row, and once scored, its best
// width and the first column reaching it.
type rowState struct {
	ub, best float64
	row, arg int // arg -1: not scored yet
}

// searchRows is the exact branch-and-bound search for the dominant
// full-knowledge shape: one world (a fixed base of N-2 intervals) and
// two placements. In one world a tuple's score is its fusion width —
// (0+w)/1 in the batched search's accumulation, the same bits — so the
// search only needs the first tuple, in enumeration order, whose width
// is the strict maximum above the fallback's, and a cheap per-row bound
// lets it score almost none of the rows.
//
// The row bound: fix dim-0 placement p0 and let m = N-F. Two queries on
// the world's sweeper give outer, the hull of the points of base ∪ {p0}
// covered at least m-1 times, and inner, the hull covered at least m
// times. The second placement p1 adds at most one to any point's
// coverage, so the fused set of base ∪ {p0, p1} lies inside outer, and
// a fused endpoint outside inner lies in p1. If both endpoints lie
// outside inner, the fused hull lies inside p1; otherwise one endpoint
// lies in inner. Hence
//
//	|S| <= min(|outer|, max(inner.Hi-outer.Lo, outer.Hi-inner.Lo, w1))
//
// with w1 the widest dim-1 placement, and |S| <= min(w1, |outer|) when
// no inner exists. Without outer no tuple of the row fuses. Every term
// is a difference of the same float endpoints the kernel subtracts, and
// float subtraction is monotone, so the bound holds bit for bit.
//
// Phase 1 visits rows in descending bound, scores each row's stealthy
// tuples with one ScoreBatch, and stops once a bound cannot beat the
// best width: that best is the optimum S*. Phase 2 finds the first row
// in enumeration order whose best width is exactly S*, and returns its
// first such tuple — the tuple the batched search's strict argmax
// selects. Only rows bounded at or above S* can hold it, and they form a
// prefix of the visiting order: those bounded above S* were all scored
// in phase 1, and those bounded at S* come last, in enumeration order,
// so phase 2 scores them only until one hits S* or passes the earliest
// hit so far. When S* does not beat the fallback's width the fallback is kept, as
// in the batched search.
func (o *Optimal) searchRows(ctx Context, cands [][]float64, fallback []interval.Interval) []interval.Interval {
	sw := &o.eval.sweeps[0]
	w0, w1 := ctx.OwnWidths[0], ctx.OwnWidths[1]
	w1Max := 0.0
	for _, cc := range cands[1] {
		if w := (cc + w1/2) - (cc - w1/2); w > w1Max {
			w1Max = w
		}
	}
	base := math.Inf(-1)
	if ctx.StealthOK(fallback) {
		o.batch.Reset(2)
		o.batch.Add(fallback)
		widths, oks := o.scratchScores(1)
		sw.ScoreBatch(&o.batch, ctx.F, widths, oks)
		if oks[0] {
			base = widths[0]
		}
	}

	if n := len(cands[0]); cap(o.rows) < n {
		o.rows = make([]rowState, 0, n)
	}
	if n := len(cands[1]); cap(o.cols) < n {
		o.cols = make([]int, 0, n)
	}
	rows := o.rows[:0]
	one := o.placed[:1]
	for i, c0 := range cands[0] {
		one[0] = interval.Interval{Lo: c0 - w0/2, Hi: c0 + w0/2}
		outer, ok := sw.FuseWith(one, ctx.F)
		if !ok {
			continue // no tuple of this row fuses
		}
		ub := w1Max
		if inner, ok := sw.FuseWith(one, ctx.F-1); ok {
			ub = math.Max(math.Max(inner.Hi-outer.Lo, outer.Hi-inner.Lo), w1Max)
		}
		rows = append(rows, rowState{ub: math.Min(ub, outer.Hi-outer.Lo), row: i, arg: -1})
	}
	o.rows = rows
	// Descending bound, ties in enumeration order.
	slices.SortFunc(rows, func(a, b rowState) int {
		switch {
		case a.ub > b.ub:
			return -1
		case a.ub < b.ub:
			return 1
		}
		return a.row - b.row
	})

	best := base
	for r := range rows {
		if rows[r].ub <= best {
			break
		}
		if s := o.scoreRow(ctx, cands, &rows[r]); s > best {
			best = s
		}
	}
	if !(best > base) {
		return fallback
	}
	win := -1
	for r := range rows {
		if rows[r].ub < best {
			break
		}
		if win >= 0 && rows[r].row > rows[win].row {
			continue
		}
		if rows[r].arg < 0 {
			o.scoreRow(ctx, cands, &rows[r])
		}
		if rows[r].best == best {
			win = r
		}
	}
	idx := o.idx[:2]
	idx[0], idx[1] = rows[win].row, rows[win].arg
	place(ctx.OwnWidths, cands, idx, o.placed[:2])
	return o.placed[:2]
}

// scoreRow scores the stealthy tuples of dim-0 row r.row in the single
// world, records the row's best width and its first column in
// enumeration order in r, and returns the best width (-Inf when no
// tuple of the row is stealthy and fusing).
func (o *Optimal) scoreRow(ctx Context, cands [][]float64, r *rowState) float64 {
	need := ctx.N - ctx.F - 1
	placed, idx := o.placed[:2], o.idx[:2]
	idx[0] = r.row
	o.batch.Reset(2)
	o.cols = o.cols[:0]
	for j := range cands[1] {
		idx[1] = j
		place(ctx.OwnWidths, cands, idx, placed)
		if o.stealthy(ctx.Seen, need, placed, idx) {
			o.batch.Add(placed)
			o.cols = append(o.cols, j)
		}
	}
	r.best, r.arg = math.Inf(-1), 0
	if n := len(o.cols); n > 0 {
		widths, oks := o.scratchScores(n)
		o.eval.sweeps[0].ScoreBatch(&o.batch, ctx.F, widths, oks)
		for l, ok := range oks {
			if ok && widths[l] > r.best {
				r.best, r.arg = widths[l], o.cols[l]
			}
		}
	}
	return r.best
}

// scratchScores returns the reused per-lane score buffers sized to n.
func (o *Optimal) scratchScores(n int) ([]float64, []bool) {
	o.widths = resizeFloats(o.widths, n)
	if cap(o.oks) < n {
		o.oks = make([]bool, n)
	}
	return o.widths, o.oks[:n]
}

// resizeFloats returns buf with length n, reusing capacity.
func resizeFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// resizeInts returns buf with length n, reusing capacity.
func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// maxTuples returns the effective MaxTuples.
func (o *Optimal) maxTuples() int {
	if o.MaxTuples > 0 {
		return o.MaxTuples
	}
	return defaultMaxTuples
}

// candidateSets builds per-interval candidate center sets, thinning the
// grid until the total tuple count respects MaxTuples, then pruning
// dominated placements. It returns nil when any interval admits no
// candidate (impossible passive placement).
//
// Grid thinning cannot shrink the critical-alignment candidates, so
// after a bounded number of doublings the sets are subsampled outright.
//
// The pruning runs after thinning on purpose: thinning decisions (step
// doublings, subsample spacing) are driven by the unpruned counts, so
// they — and therefore the surviving candidate grid and the selected
// plan — are bit-identical to the unpruned search; pruning only removes
// placements the per-tuple stealth check would have rejected anyway.
func (o *Optimal) candidateSets(ctx Context) [][]float64 {
	maxTuples := o.maxTuples()
	step := ctx.step()
	const maxDoublings = 12
	// sets and the per-dimension backing arrays are scratch reused
	// across decisions (and across thinning iterations).
	for len(o.setBuf) < len(ctx.OwnWidths) {
		o.setBuf = append(o.setBuf, nil)
	}
	var sets [][]float64
	for iter := 0; ; iter++ {
		thinned := ctx
		thinned.Step = step
		sets = o.sets[:0]
		total := 1
		for k, w := range ctx.OwnWidths {
			o.setBuf[k] = appendCandidateCenters(o.setBuf[k][:0], thinned, w)
			if len(o.setBuf[k]) == 0 {
				return nil
			}
			sets = append(sets, o.setBuf[k])
			total *= len(o.setBuf[k])
		}
		o.sets = sets
		if total <= maxTuples {
			break
		}
		if iter >= maxDoublings {
			perDim := perDimBudget(maxTuples, len(sets))
			for k := range sets {
				sets[k] = subsample(sets[k], perDim)
			}
			break
		}
		step *= 2
	}
	if ctx.Mode() == Passive {
		// Dominated-placement pruning: passive stealth — the exact
		// per-interval predicate StealthOK applies (valid, width within
		// tolerance, contains Delta) — factors over dimensions, so any
		// tuple using a failing center fails as a whole. Dropping those
		// centers up front shrinks the scored batch without touching the
		// argmax.
		for k := range sets {
			w := ctx.OwnWidths[k]
			kept := sets[k][:0]
			for _, cc := range sets[k] {
				iv := interval.Interval{Lo: cc - w/2, Hi: cc + w/2}
				if !iv.Valid() {
					continue
				}
				if diff := iv.Width() - w; diff > 1e-9 || diff < -1e-9 {
					continue
				}
				if !iv.ContainsInterval(ctx.Delta) {
					continue
				}
				kept = append(kept, cc)
			}
			if len(kept) == 0 {
				return nil
			}
			sets[k] = kept
		}
	}
	return sets
}

// pruneActive classifies the active-mode stealth obligations once per
// decision against the seen-only coverage, so the per-tuple check inside
// the enumeration shrinks to a usually-empty residual. It returns false
// when no tuple can be stealthy (the whole search collapses to the
// fallback). The classification is exact — it changes which work runs,
// never which tuples pass:
//
//   - Placement coverage is monotone in the pool: adding intervals never
//     lowers it. A placed interval's own obligation (a point covered by
//     need others) therefore decomposes per dimension into a band: if
//     even the seen intervals plus the best case k-1 co-placements
//     cannot reach need, every tuple using that center fails — prune it;
//     if the seen intervals alone reach need, every tuple passes for
//     this dimension — mark it decided; between the two bounds the tuple
//     check remains.
//   - The thresholds account for which equal copy the full-pool check
//     skips: a center equal to a seen interval loses that seen copy but
//     keeps its own placed copy (+1 unconditionally on its window), a
//     center not in Seen loses its placed copy.
//   - OwnSent obligations get the same triage (hopeless / decided /
//     per-tuple), with their pool skip index resolved once.
//   - The validity and width-tolerance checks StealthOK applies per
//     placed interval are per-dimension predicates; they prune centers
//     here exactly as they would have rejected tuples there.
func (o *Optimal) pruneActive(ctx Context, cands [][]float64, need int) bool {
	k := len(ctx.OwnWidths)
	seenPool := stealthPool{seen: ctx.Seen}
	o.sentIvs = o.sentIvs[:0]
	o.sentSkip = o.sentSkip[:0]
	if need > 0 {
		for _, a := range ctx.OwnSent {
			skip := seenPool.skipOf(a)
			if skip < 0 {
				// Not among Seen (never true for a well-formed context):
				// keep the fully dynamic per-tuple check.
				o.sentIvs = append(o.sentIvs, a)
				o.sentSkip = append(o.sentSkip, -1)
				continue
			}
			maxCov := seenPool.windowMaxCov(a, skip, need)
			if need-k > 0 && maxCov < need-k {
				return false // unreachable even with every placement helping
			}
			if maxCov >= need {
				continue // reaches need on Seen alone: passes in every tuple
			}
			o.sentIvs = append(o.sentIvs, a)
			o.sentSkip = append(o.sentSkip, skip)
		}
	}
	for len(o.decidedBuf) < k {
		o.decidedBuf = append(o.decidedBuf, nil)
	}
	for len(o.witOffBuf) < k {
		o.witOffBuf = append(o.witOffBuf, nil)
	}
	// Witness fast path (k == 2 only): an undecided center's seen-only
	// coverage tops out exactly one short of decided — relNeed — so a
	// tuple satisfies its obligation iff the other placed interval touches
	// a point of the window where seen coverage already reaches relNeed
	// (that point then gains the one missing count). Those points form
	// closed segments with endpoints among the window bounds and seen
	// endpoints; precompute them here and the per-tuple residual becomes
	// an overlap test against them.
	fast := k == 2
	o.decided = o.decided[:0]
	o.witOff = o.witOff[:0]
	o.witArena = o.witArena[:0]
	for d := range cands {
		w := ctx.OwnWidths[d]
		kept := cands[d][:0]
		dec := o.decidedBuf[d][:0]
		var off []int
		if fast {
			off = append(o.witOffBuf[d][:0], len(o.witArena))
		}
		for _, cc := range cands[d] {
			iv := interval.Interval{Lo: cc - w/2, Hi: cc + w/2}
			if !iv.Valid() {
				continue
			}
			if diff := iv.Width() - w; diff > 1e-9 || diff < -1e-9 {
				continue
			}
			skip := seenPool.skipOf(iv)
			relNeed, decNeed := need-(k-1), need
			if skip >= 0 {
				// Equal seen copy skipped; the placed copy itself covers
				// its whole window, worth one unconditional count.
				relNeed, decNeed = need-k, need-1
			}
			decided := true
			if decNeed > 0 {
				maxCov := seenPool.windowMaxCov(iv, skip, decNeed)
				if relNeed > 0 && maxCov < relNeed {
					continue
				}
				decided = maxCov >= decNeed
			}
			dec = append(dec, decided)
			kept = append(kept, cc)
			if fast {
				if !decided {
					o.witArena, o.witPts = appendWitnessSegments(
						o.witArena, o.witPts, ctx.Seen, iv, skip, relNeed)
				}
				off = append(off, len(o.witArena))
			}
		}
		if len(kept) == 0 {
			return false
		}
		cands[d] = kept
		o.decidedBuf[d] = dec
		o.decided = append(o.decided, dec)
		if fast {
			o.witOffBuf[d] = off
			o.witOff = append(o.witOff, off)
		}
	}
	return true
}

// appendWitnessSegments appends to dst the maximal closed segments of
// {x in window a : at least level seen intervals other than index skip
// contain x}. Coverage is piecewise constant between endpoints, and an
// interval covering an open gap between adjacent candidate points covers
// its closure, so a run of qualifying points joined by qualifying gaps is
// exactly one maximal segment. pts is sort/dedup scratch, returned for
// reuse.
func appendWitnessSegments(dst []interval.Interval, pts []float64, seen []interval.Interval, a interval.Interval, skip, level int) ([]interval.Interval, []float64) {
	if level <= 0 {
		return append(dst, a), pts
	}
	pts = append(pts[:0], a.Lo)
	if a.Hi > a.Lo {
		pts = append(pts, a.Hi)
	}
	for i, iv := range seen {
		if i == skip {
			continue
		}
		if iv.Lo > a.Lo && iv.Lo < a.Hi {
			pts = append(pts, iv.Lo)
		}
		if iv.Hi > a.Lo && iv.Hi < a.Hi {
			pts = append(pts, iv.Hi)
		}
	}
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j-1] > pts[j]; j-- {
			pts[j-1], pts[j] = pts[j], pts[j-1]
		}
	}
	u := 1
	for i := 1; i < len(pts); i++ {
		if pts[i] != pts[u-1] {
			pts[u] = pts[i]
			u++
		}
	}
	pts = pts[:u]
	for i := 0; i < len(pts); {
		if seenCovAt(seen, skip, pts[i]) < level {
			i++
			continue
		}
		j := i
		for j+1 < len(pts) && seenCovGap(seen, skip, pts[j], pts[j+1]) >= level {
			j++
		}
		dst = append(dst, interval.Interval{Lo: pts[i], Hi: pts[j]})
		i = j + 1
	}
	return dst, pts
}

// seenCovAt counts the seen intervals other than index skip containing x.
func seenCovAt(seen []interval.Interval, skip int, x float64) int {
	c := 0
	for i, iv := range seen {
		if i != skip && iv.Lo <= x && x <= iv.Hi {
			c++
		}
	}
	return c
}

// seenCovGap counts the seen intervals other than index skip covering the
// whole closed span [a, b] — the coverage of the open gap (a, b) between
// adjacent candidate points, since a closed interval covering the open
// gap covers its closure.
func seenCovGap(seen []interval.Interval, skip int, a, b float64) int {
	c := 0
	for i, iv := range seen {
		if i != skip && iv.Lo <= a && iv.Hi >= b {
			c++
		}
	}
	return c
}

// perDimBudget returns the largest b with b^dims <= maxTuples (at least 1).
func perDimBudget(maxTuples, dims int) int {
	b := 1
	for {
		next := b + 1
		prod := 1
		for d := 0; d < dims; d++ {
			prod *= next
			if prod > maxTuples {
				return b
			}
		}
		b = next
	}
}

// subsample keeps at most n candidates, evenly spaced, always retaining
// the first and last (the extreme placements). It compacts in place —
// the source index k*(len-1)/(n-1) never falls below the destination
// index k, so forward copying reads each slot before overwriting it.
func subsample(cands []float64, n int) []float64 {
	if n <= 0 {
		n = 1
	}
	if len(cands) <= n {
		return cands
	}
	if n == 1 {
		return cands[:1]
	}
	last := len(cands) - 1
	for k := 1; k < n; k++ {
		cands[k] = cands[k*last/(n-1)]
	}
	return cands[:n]
}

// evaluator computes the attacker's objective for candidate plans: the
// (expected) fusion interval width over her belief about unseen
// placements. It is the hot core of the plan search, rebuilt by init
// once per decision and scored batch-at-a-time; all buffers persist
// across decisions so steady-state searches do not allocate at all.
type evaluator struct {
	f int // fusion fault bound; every scored set has exactly ctx.N intervals

	// Worlds: every enumerated/sampled completion of the unseen
	// sensors, stride intervals each, laid out in one flat arena in
	// enumeration order (the order fixes the expectation's summation
	// order, which the byte-identity contract depends on).
	stride int
	arena  []interval.Interval
	// sweeps[w] holds world w's fixed intervals — ctx.Seen plus the
	// world's completion — presorted for incremental candidate scoring.
	sweeps []interval.Sweeper

	// Enumeration scratch: the truth grid, and the odometer state of the
	// exact world enumeration (current center and inclusive limit per
	// unseen sensor).
	truths  []float64
	centers []float64
	limits  []float64
	// rng backs the Monte Carlo fallback, reseeded per decision — the
	// same generator and stream rand.New(rand.NewSource(seed)) produced,
	// without the per-decision allocation.
	rng *rand.Rand
}

// init rebuilds the evaluator for one decision context. The enumeration
// (truth grid × per-sensor offset grids, or the seeded Monte Carlo
// fallback past MaxExact) visits worlds in the order — and accumulates
// the per-sensor centers with the same repeated additions — as the
// original recursive formulation, so the worlds, and therefore every
// plan the search returns, are bit-identical to it. The recursion itself
// is gone: a flat odometer walks the grid without closure allocations.
func (e *evaluator) init(ctx Context) {
	e.f = ctx.F
	e.stride = len(ctx.UnseenWidths)
	e.arena = e.arena[:0]
	if e.stride == 0 {
		// Full knowledge: a single empty world.
		e.prepareSweeps(ctx, 1)
		return
	}
	e.truths = ctx.appendTruthPoints(e.truths[:0])
	step := ctx.step()
	// Count exact combinations: per truth point, each unseen sensor's
	// center ranges over [t-w/2, t+w/2] on the grid.
	exact := len(e.truths)
	for _, w := range ctx.UnseenWidths {
		pts := int(w/step) + 1
		exact *= pts
	}
	if exact <= ctx.maxExact() {
		d := e.stride
		if cap(e.centers) < d {
			e.centers = make([]float64, d)
			e.limits = make([]float64, d)
		}
		centers, limits := e.centers[:d], e.limits[:d]
		for _, t := range e.truths {
			// Every dimension's grid starts at t-w/2 and advances by
			// repeated `+= step` up to t+w/2 (tolerance for float
			// accumulation), exactly like the recursive per-level loops;
			// a carry resets the dimension to its fresh start value.
			for k, w := range ctx.UnseenWidths {
				centers[k] = t - w/2
				limits[k] = t + w/2 + 1e-9
			}
			for {
				for k, w := range ctx.UnseenWidths {
					c := centers[k]
					e.arena = append(e.arena, interval.Interval{Lo: c - w/2, Hi: c + w/2})
				}
				k := d - 1
				for k >= 0 {
					centers[k] += step
					if centers[k] <= limits[k] {
						break
					}
					centers[k] = t - ctx.UnseenWidths[k]/2
					k--
				}
				if k < 0 {
					break
				}
			}
		}
	} else {
		if e.rng == nil {
			e.rng = rand.New(rand.NewSource(1))
		}
		e.rng.Seed(ctx.rngSeed())
		rng := e.rng
		for s := 0; s < ctx.mcSamples(); s++ {
			t := ctx.Delta.Lo + rng.Float64()*ctx.Delta.Width()
			for _, w := range ctx.UnseenWidths {
				c := t + (rng.Float64()-0.5)*w
				e.arena = append(e.arena, interval.Interval{Lo: c - w/2, Hi: c + w/2})
			}
		}
	}
	e.prepareSweeps(ctx, len(e.arena)/e.stride)
}

// prepareSweeps preloads one incremental sweeper per world with that
// world's fixed intervals (Seen plus the world's unseen completion).
// Sweeper buffers — including the sentinel arrays the batch kernel
// rebuilds lazily — are reused across decisions.
func (e *evaluator) prepareSweeps(ctx Context, worlds int) {
	if cap(e.sweeps) < worlds {
		e.sweeps = append(e.sweeps[:cap(e.sweeps)], make([]interval.Sweeper, worlds-cap(e.sweeps))...)
	}
	e.sweeps = e.sweeps[:worlds]
	for w := 0; w < worlds; w++ {
		sw := &e.sweeps[w]
		sw.Preload(ctx.Seen)
		for _, iv := range e.arena[w*e.stride : w*e.stride+e.stride] {
			sw.Add(iv)
		}
	}
}

// --- Plan memo ------------------------------------------------------------

const (
	// memoInitialSlots sizes the first open-addressing table; a sweep's
	// working set of distinct contexts is typically far below it.
	memoInitialSlots = 1 << 10
	// memoArenaChunk is the minimum plan-arena growth (in intervals):
	// the arena grows by at least this chunk and by doubling thereafter,
	// so inserts never allocate per entry.
	memoArenaChunk = 1 << 12
)

// planMemo is the plan cache: an open-addressing hash table (linear
// probing, power-of-two sized, ≤3/4 load) whose entries point into one
// chunked interval arena. Neither lookups nor inserts allocate — an
// insert copies the plan into the arena tail and writes one slot — and
// growth (table doubling, arena chunk-doubling) amortizes to zero
// allocations per decision. Offsets rather than pointers index the
// arena, so arena growth relocating the backing array is harmless.
//
// An entry is identified by two independent 64-bit hashes of its
// context (hashContext): the slot hash picks the probe start, and a hit
// must match the confirm hash too, so two contexts that collide on one
// hash still keep their own plans. The key words themselves are not
// stored: a campaign key runs to about twenty words, so an arena of them
// would several-fold the bytes per entry to guard against a 2^-128
// event. Plans are stored relative to the key's shift (see memoKey);
// the caller adds the shift back.
type planMemo struct {
	slots []memoSlot
	arena []interval.Interval
	count int
}

// memoSlot is one 24-byte table entry; n == 0 marks an empty slot
// (plans are never empty — Validate rejects contexts with nothing to
// place).
type memoSlot struct {
	hash, confirm uint64
	off, n        uint32
}

// get returns the stored (shift-relative) plan for the hash pair,
// allocation-free. The slice points into the arena and is only valid
// until the next insert.
func (m *planMemo) get(hash, confirm uint64) ([]interval.Interval, bool) {
	if m.count == 0 {
		return nil, false
	}
	mask := uint64(len(m.slots) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.n == 0 {
			return nil, false
		}
		if s.hash == hash && s.confirm == confirm {
			return m.arena[s.off : s.off+s.n : s.off+s.n], true
		}
	}
}

// insert stores plan minus shift in the arena under the hash pair.
// Steady-state inserts perform zero allocations; growth is amortized
// doubling.
func (m *planMemo) insert(hash, confirm uint64, plan []interval.Interval, shift float64) {
	if len(plan) == 0 {
		return
	}
	if 4*(m.count+1) > 3*len(m.slots) {
		m.grow()
	}
	off := len(m.arena)
	if off+len(plan) > cap(m.arena) {
		newCap := cap(m.arena)
		if newCap < memoArenaChunk {
			newCap = memoArenaChunk
		}
		for newCap < off+len(plan) {
			newCap *= 2
		}
		na := make([]interval.Interval, off, newCap)
		copy(na, m.arena)
		m.arena = na
	}
	for _, iv := range plan {
		m.arena = append(m.arena, interval.Interval{Lo: iv.Lo - shift, Hi: iv.Hi - shift})
	}
	mask := uint64(len(m.slots) - 1)
	i := hash & mask
	for m.slots[i].n != 0 && (m.slots[i].hash != hash || m.slots[i].confirm != confirm) {
		i = (i + 1) & mask
	}
	if m.slots[i].n == 0 {
		m.count++
	}
	m.slots[i] = memoSlot{hash: hash, confirm: confirm, off: uint32(off), n: uint32(len(plan))}
}

// grow doubles the table (or creates the initial one) and rehashes.
func (m *planMemo) grow() {
	n := 2 * len(m.slots)
	if n == 0 {
		n = memoInitialSlots
	}
	old := m.slots
	m.slots = make([]memoSlot, n)
	mask := uint64(n - 1)
	for _, s := range old {
		if s.n == 0 {
			continue
		}
		i := s.hash & mask
		for m.slots[i].n != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
}

// --- Context hashing ------------------------------------------------------

// memoKey is a context's plan-memo key: the slot hash, the independent
// confirm hash every hit must also match, and the translation the plan
// is stored relative to. shifted contexts are keyed and stored relative
// to shift = Delta.Lo; absolute ones have shift 0.
type memoKey struct {
	hash, confirm uint64
	shift         float64
	shifted       bool
}

// memoHash accumulates two independent 64-bit hashes a word at a time:
// each word folds into both states through a multiply–xorshift step with
// its own constants (each step is a bijection of the state, so
// equal-length keys differing in one word never collide), and sum
// finishes both with a full avalanche, so the slot index can take the
// low bits even though float words differ mostly in their high bits.
type memoHash struct{ a, b uint64 }

func newMemoHash() memoHash {
	return memoHash{a: 0x243f6a8885a308d3, b: 0x13198a2e03707344}
}

func (h *memoHash) word(v uint64) {
	a := (h.a ^ v) * 0x9e3779b97f4a7c15
	b := (h.b + v) * 0xc2b2ae3d27d4eb4f
	h.a = a ^ a>>32
	h.b = b ^ b>>29
}

func (h *memoHash) int(v int)       { h.word(uint64(int64(v))) }
func (h *memoHash) float(v float64) { h.word(math.Float64bits(round6(v))) }

// sum returns the slot hash and the confirm hash.
func (h *memoHash) sum() (hash, confirm uint64) { return avalanche(h.a), avalanche(h.b) }

// avalanche is the MurmurHash3 64-bit finalizer.
func avalanche(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashContext canonicalizes the decision-relevant context fields into a
// memo key. The fields are quantized (round6) with section markers so
// field boundaries cannot alias. Seen interval order does not affect
// the optimum, so Seen is sorted (by Lo, then Hi) into a reused scratch
// before hashing; likewise the unseen widths. The search budgets
// (MaxExact, MCSamples, and the strategy's own MaxTuples) shape the plan
// too, so their effective values are part of the key: one Optimal
// planning the same context under two budgets must not replay the first
// budget's plan.
//
// Full-knowledge contexts whose values all pass dyadic are keyed
// relative to Delta.Lo, so every translated copy of a context shares
// one entry. Fusion commutes with translation, and for such values every
// step of the search — candidate grids, critical alignments, stealth
// checks, fusion widths — is exact float arithmetic, so the plan of the
// copy shifted by t is the plan shifted by t, bit for bit. Subtracting
// the shift is exact for such values and round6 is the identity on them,
// so two contexts share a shifted key exactly when one is a translate of
// the other. Multi-world
// contexts keep the absolute key: their world enumeration (truth grid
// and Monte Carlo seed) is anchored at absolute coordinates. So do
// continuous-valued contexts and non-dyadic steps such as 0.1. A flag
// word keeps the two key spaces apart.
func (o *Optimal) hashContext(ctx Context) memoKey {
	var k memoKey
	if len(ctx.UnseenWidths) == 0 && shiftable(ctx) {
		k.shifted, k.shift = true, ctx.Delta.Lo
	}
	h := newMemoHash()
	if k.shifted {
		h.word(1)
	} else {
		h.word(0)
	}
	h.int(ctx.N)
	h.int(ctx.F)
	h.int(ctx.Sent)
	h.float(ctx.Delta.Lo - k.shift)
	h.float(ctx.Delta.Hi - k.shift)
	h.float(ctx.step())
	h.int(ctx.maxExact())
	h.int(ctx.mcSamples())
	h.int(o.maxTuples())
	o.seenSorted = append(o.seenSorted[:0], ctx.Seen...)
	sortIntervals(o.seenSorted)
	for _, s := range o.seenSorted {
		h.float(s.Lo - k.shift)
		h.float(s.Hi - k.shift)
	}
	h.word('#')
	for _, s := range ctx.OwnSent {
		h.float(s.Lo - k.shift)
		h.float(s.Hi - k.shift)
	}
	h.word('#')
	for _, w := range ctx.OwnWidths {
		h.float(w)
	}
	h.word('#')
	o.uwSorted = append(o.uwSorted[:0], ctx.UnseenWidths...)
	for i := 1; i < len(o.uwSorted); i++ {
		for j := i; j > 0 && o.uwSorted[j-1] > o.uwSorted[j]; j-- {
			o.uwSorted[j-1], o.uwSorted[j] = o.uwSorted[j], o.uwSorted[j-1]
		}
	}
	for _, w := range o.uwSorted {
		h.float(w)
	}
	k.hash, k.confirm = h.sum()
	return k
}

// shiftable reports whether every value hashContext keys — Delta, the
// step, the own widths, and the Seen and OwnSent endpoints — is dyadic.
func shiftable(ctx Context) bool {
	if !dyadic(ctx.Delta.Lo) || !dyadic(ctx.Delta.Hi) || !dyadic(ctx.step()) {
		return false
	}
	for _, w := range ctx.OwnWidths {
		if !dyadic(w) {
			return false
		}
	}
	for _, s := range ctx.Seen {
		if !dyadic(s.Lo) || !dyadic(s.Hi) {
			return false
		}
	}
	for _, s := range ctx.OwnSent {
		if !dyadic(s.Lo) || !dyadic(s.Hi) {
			return false
		}
	}
	return true
}

// dyadic reports whether v is a multiple of 2^-6 below 2^20 in
// magnitude. Sums and differences of such values (and of their halves,
// the plan search's centers) stay exact far beyond the search's range,
// and the ulp of every coordinate stays below the search's 1e-9
// tolerances, so each tolerance comparison decides as its exact
// counterpart does, at any translation.
func dyadic(v float64) bool {
	if !(math.Abs(v) < 1<<20) {
		return false
	}
	x := v * 64
	return x == float64(int64(x))
}

// sortIntervals insertion-sorts by (Lo, Hi) — deterministic, and free of
// the closure allocation sort.Slice would pay on this hot path.
func sortIntervals(ivs []interval.Interval) {
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0; j-- {
			a, b := ivs[j-1], ivs[j]
			if a.Lo < b.Lo || (a.Lo == b.Lo && a.Hi <= b.Hi) {
				break
			}
			ivs[j-1], ivs[j] = ivs[j], ivs[j-1]
		}
	}
}

func round6(x float64) float64 { return math.Round(x*1e6) / 1e6 }
