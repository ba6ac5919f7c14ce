package attack

import (
	"math"
	"math/rand"
	"testing"

	"sensorfusion/internal/fusion"
	"sensorfusion/internal/interval"
)

func TestOptimalFullKnowledgeBeatsGreedy(t *testing.T) {
	// Full knowledge (no unseen): problem (1). The optimal plan must be
	// at least as good as every greedy plan.
	seen := []interval.Interval{
		interval.MustNew(-2.5, 2.5), // width 5
		interval.MustNew(-4, 7),     // width 11
	}
	c := Context{
		N: 3, F: 1, Sent: 2,
		Delta:     interval.MustNew(-2, 3), // attacker's width-5 correct reading
		OwnWidths: []float64{5},
		Seen:      seen,
		Step:      0.5,
	}
	if c.Mode() != Active {
		t.Fatal("fixture should be active")
	}
	opt := NewOptimal()
	optPlan := opt.Plan(c)
	if !c.StealthOK(optPlan) {
		t.Fatalf("optimal plan %v not stealthy", optPlan)
	}
	width := func(plan []interval.Interval) float64 {
		all := append(append([]interval.Interval(nil), seen...), plan...)
		fused, err := fusion.Fuse(all, c.F)
		if err != nil {
			t.Fatalf("fuse: %v", err)
		}
		return fused.Width()
	}
	optW := width(optPlan)
	for _, g := range []Strategy{Greedy{}, Greedy{TwoSided: true}, Null{}} {
		gPlan := g.Plan(c)
		if gw := width(gPlan); gw > optW+1e-9 {
			t.Fatalf("%s width %v beats optimal %v", g.Name(), gw, optW)
		}
	}
	// And the attack must actually gain over sending correct readings.
	if nullW := width(Null{}.Plan(c)); optW <= nullW {
		t.Fatalf("optimal width %v did not beat null %v", optW, nullW)
	}
}

func TestOptimalPassiveNoSlackIsForced(t *testing.T) {
	// fa=1, own width equals |Delta|: the only stealthy passive plan is
	// Delta itself. Optimal must return it.
	c := Context{
		N: 4, F: 1, Sent: 0,
		Delta:        interval.MustNew(9.9, 10.1),
		OwnWidths:    []float64{0.2},
		UnseenWidths: []float64{0.2, 1, 2},
		Step:         0.1,
		MaxExact:     200,
		MCSamples:    50,
	}
	if c.Mode() != Passive {
		t.Fatal("fixture should be passive")
	}
	plan := NewOptimal().Plan(c)
	if !plan[0].ApproxEqual(c.Delta, 1e-9) {
		t.Fatalf("plan = %v, want forced %v", plan[0], c.Delta)
	}
}

func TestOptimalMemoization(t *testing.T) {
	c := Context{
		N: 3, F: 1, Sent: 2,
		Delta:     interval.MustNew(-1, 1),
		OwnWidths: []float64{4},
		Seen:      []interval.Interval{interval.MustNew(-2, 2), interval.MustNew(-1, 3)},
		Step:      0.5,
	}
	o := NewOptimal()
	p1 := o.Plan(c)
	if o.memo.count != 1 {
		t.Fatalf("memo size = %d, want 1", o.memo.count)
	}
	p2 := o.Plan(c)
	if !p1[0].Equal(p2[0]) {
		t.Fatalf("memoized plan differs: %v vs %v", p1, p2)
	}
	// Permuting Seen hits the same cache entry (canonical key).
	c2 := c
	c2.Seen = []interval.Interval{c.Seen[1], c.Seen[0]}
	p3 := o.Plan(c2)
	if o.memo.count != 1 {
		t.Fatalf("permuted Seen missed cache: memo size %d", o.memo.count)
	}
	if !p3[0].Equal(p1[0]) {
		t.Fatal("permuted Seen changed the plan")
	}
}

// TestOptimalMemoHitZeroAllocs pins the cache-hit fast path: once a
// context's plan is memoized, replaying the decision — hash the context,
// look it up, hand back the cached slice — performs zero heap
// allocations. This is what keeps exhaustive sweeps, which replay the
// same few contexts millions of times, allocation-free between misses.
func TestOptimalMemoHitZeroAllocs(t *testing.T) {
	c := Context{
		N: 4, F: 1, Sent: 3,
		Delta:     interval.MustNew(9.9, 10.1),
		OwnWidths: []float64{0.2},
		Seen: []interval.Interval{
			interval.MustNew(9.9, 10.1),
			interval.MustNew(9.6, 10.6),
			interval.MustNew(9.2, 11.2),
		},
		Step: 0.1,
	}
	o := NewOptimal()
	if plan := o.Plan(c); len(plan) != 1 {
		t.Fatalf("warmup plan = %v", plan)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if plan := o.Plan(c); len(plan) != 1 {
			t.Fatal("memo hit returned a bad plan")
		}
	}); allocs != 0 {
		t.Fatalf("memoized Plan hit allocates %v per call, want 0", allocs)
	}

	// A shifted hit: a dyadic full-knowledge context keyed relative to
	// Delta, replayed through a translated copy. The hit adds the shift
	// back into the strategy's reused output buffer.
	d := Context{
		N: 5, F: 2, Sent: 3,
		Delta:     interval.MustNew(-3, 4),
		OwnWidths: []float64{14, 14},
		Seen: []interval.Interval{
			interval.MustCentered(-1, 20),
			interval.MustCentered(0.5, 20),
			interval.MustCentered(-2, 20),
		},
		Step: 1,
	}
	moved := translate(d, 37.25)
	o.Plan(d)
	entries := o.memo.count
	if plan := o.Plan(moved); len(plan) != 2 || o.memo.count != entries {
		t.Fatalf("translated copy missed the memo: plan %v, entries %d -> %d", plan, entries, o.memo.count)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if plan := o.Plan(moved); len(plan) != 2 {
			t.Fatal("shifted memo hit returned a bad plan")
		}
	}); allocs != 0 {
		t.Fatalf("shifted memo hit allocates %v per call, want 0", allocs)
	}
}

// TestOptimalUncachedSearchZeroAllocs pins the cache-MISS path at zero
// heap allocations once scratch is warm: with the memo capped at one
// entry and a cycle of distinct contexts, every Plan call runs the full
// batched search — candidate enumeration, world enumeration, stealth
// filtering, batch scoring — against reused arenas. This is the steady
// state of continuous-valued workloads, where contexts never repeat and
// the memo stops absorbing work.
func TestOptimalUncachedSearchZeroAllocs(t *testing.T) {
	fixtures := []Context{
		{ // active, full knowledge (no unseen worlds)
			N: 4, F: 1, Sent: 3,
			OwnWidths: []float64{0.2},
			Seen: []interval.Interval{
				interval.MustNew(9.9, 10.1),
				interval.MustNew(9.6, 10.6),
				interval.MustNew(9.2, 11.2),
			},
			Step: 0.1,
		},
		{ // active, full knowledge, two placements (the row search)
			N: 5, F: 2, Sent: 3,
			OwnWidths: []float64{0.6, 0.6},
			Seen: []interval.Interval{
				interval.MustNew(9.4, 10.4),
				interval.MustNew(9.6, 10.6),
				interval.MustNew(9.5, 10.5),
			},
			Step: 0.1,
		},
		{ // passive, exact world enumeration over two unseen sensors
			N: 3, F: 1, Sent: 0,
			OwnWidths:    []float64{0.5},
			UnseenWidths: []float64{0.2, 1},
			Step:         0.1, MaxExact: 200, MCSamples: 50,
		},
		{ // passive, Monte Carlo fallback (MaxExact forces sampling)
			N: 3, F: 1, Sent: 0,
			OwnWidths:    []float64{0.5},
			UnseenWidths: []float64{0.2, 1},
			Step:         0.1, MaxExact: 2, MCSamples: 50,
		},
	}
	for fi, base := range fixtures {
		o := NewOptimal()
		o.MemoCap = 1 // one insert, then every call is a pure miss
		iter := 0
		run := func() {
			iter++
			shift := float64(iter%64+1) * 1e-3
			c := base
			c.Delta = interval.MustNew(9.9+shift, 10.1+shift)
			if plan := o.Plan(c); len(plan) != len(c.OwnWidths) {
				t.Fatalf("fixture %d: bad plan %v", fi, plan)
			}
		}
		for w := 0; w < 80; w++ {
			run() // warm every scratch arena (and fill the capped memo)
		}
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Fatalf("fixture %d: uncached Plan allocates %v per call, want 0", fi, allocs)
		}
	}
}

func TestOptimalJointTwoIntervals(t *testing.T) {
	// fa=2 active: the optimal joint plan should extend both sides
	// (or stack one side) and beat the per-interval greedy.
	seen := []interval.Interval{interval.MustNew(-2.5, 2.5)}
	c := Context{
		N: 5, F: 2, Sent: 1,
		Delta:        interval.MustNew(-1, 1),
		OwnWidths:    []float64{5, 5},
		Seen:         seen,
		UnseenWidths: []float64{2, 2},
		Step:         1,
		MaxExact:     500,
		MCSamples:    60,
	}
	if c.Mode() != Active {
		t.Fatal("fixture should be active")
	}
	plan := NewOptimal().Plan(c)
	if len(plan) != 2 {
		t.Fatalf("plan = %v", plan)
	}
	if !c.StealthOK(plan) {
		t.Fatalf("plan %v not stealthy", plan)
	}
}

func TestOptimalInvalidContext(t *testing.T) {
	if plan := NewOptimal().Plan(Context{}); plan != nil {
		t.Fatalf("invalid context should yield nil, got %v", plan)
	}
}

func TestOptimalInfeasiblePassiveFallsBack(t *testing.T) {
	// Own width smaller than |Delta|: no stealthy placement exists; Plan
	// must return the fallback (centered on Delta) rather than nil.
	c := Context{
		N: 3, F: 1, Sent: 0,
		Delta:        interval.MustNew(0, 2),
		OwnWidths:    []float64{1},
		UnseenWidths: []float64{2, 3},
		Step:         0.5,
	}
	plan := NewOptimal().Plan(c)
	if len(plan) != 1 {
		t.Fatalf("plan = %v", plan)
	}
	if !plan[0].ApproxEqual(interval.MustCentered(1, 1), 1e-9) {
		t.Fatalf("fallback plan = %v, want centered on Delta", plan[0])
	}
}

func TestOptimalTupleThinning(t *testing.T) {
	// A tight MaxTuples forces candidate thinning but must still produce
	// a stealthy plan.
	c := Context{
		N: 3, F: 1, Sent: 2,
		Delta:     interval.MustNew(-5, 5),
		OwnWidths: []float64{10},
		Seen:      []interval.Interval{interval.MustNew(-8, 8), interval.MustNew(-6, 10)},
		Step:      0.25,
	}
	o := NewOptimal()
	o.MaxTuples = 8
	plan := o.Plan(c)
	if len(plan) != 1 || !c.StealthOK(plan) {
		t.Fatalf("thinned plan = %v", plan)
	}
}

// referenceStealthOK is the pre-optimization formulation of the stealth
// check, kept verbatim as the differential oracle: build the reliable
// pool, and for every attacked interval build the pool-minus-itself
// coverage structure and ask for its maximum coverage on the window.
// The allocation-free StealthOK must agree with it decision for
// decision.
func referenceStealthOK(c Context, placed []interval.Interval) bool {
	if len(placed) != len(c.OwnWidths) {
		return false
	}
	for k, iv := range placed {
		if !iv.Valid() {
			return false
		}
		if diff := iv.Width() - c.OwnWidths[k]; diff > 1e-9 || diff < -1e-9 {
			return false
		}
	}
	if c.Mode() == Passive {
		for _, iv := range placed {
			if !iv.ContainsInterval(c.Delta) {
				return false
			}
		}
		return true
	}
	need := c.N - c.F - 1
	if need <= 0 {
		return true
	}
	pool := append(append([]interval.Interval(nil), c.Seen...), placed...)
	mine := append(append([]interval.Interval(nil), c.OwnSent...), placed...)
	for _, a := range mine {
		others := make([]interval.Interval, 0, len(pool))
		skipped := false
		for _, p := range pool {
			if !skipped && p.Equal(a) {
				skipped = true
				continue
			}
			others = append(others, p)
		}
		if interval.BuildCoverage(others).MaxCoverageOn(a) < need {
			return false
		}
	}
	return true
}

// TestStealthOKMatchesCoverageReference is the differential pin for the
// allocation-free stealth check: on random candidate placements
// (stealthy and hopeless alike, passive and active modes), StealthOK
// must agree with the Coverage-structure reference decision for
// decision.
func TestStealthOKMatchesCoverageReference(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	for trial := 0; trial < 2000; trial++ {
		n := 3 + rng.Intn(3)
		f := (n+1)/2 - 1
		fa := 1 + rng.Intn(f)
		nSeen := rng.Intn(n - fa + 1)
		c := Context{
			N: n, F: f, Sent: nSeen,
			Delta:     interval.MustCentered(float64(rng.Intn(5))-2, 1+rng.Float64()),
			OwnWidths: make([]float64, fa),
			Step:      0.5,
		}
		for k := range c.OwnWidths {
			c.OwnWidths[k] = 0.5 + float64(rng.Intn(6))
		}
		for s := 0; s < nSeen; s++ {
			c.Seen = append(c.Seen, interval.MustCentered(
				c.Delta.Center()+float64(rng.Intn(5))-2, 1+float64(rng.Intn(4))))
		}
		for u := 0; u < n-fa-nSeen; u++ {
			c.UnseenWidths = append(c.UnseenWidths, 1+float64(rng.Intn(4)))
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("fixture: %v", err)
		}
		for cand := 0; cand < 5; cand++ {
			placed := make([]interval.Interval, fa)
			for k := range placed {
				w := c.OwnWidths[k]
				if cand == 4 && k == 0 {
					w += 0.5 // wrong width: both checks must reject
				}
				placed[k] = interval.MustCentered(
					c.Delta.Center()+float64(rng.Intn(9))-4, w)
			}
			want := referenceStealthOK(c, placed)
			if got := c.StealthOK(placed); got != want {
				t.Fatalf("ctx=%+v placed=%v: StealthOK says %v, coverage reference says %v",
					c, placed, got, want)
			}
		}
	}
}

func TestOptimalMonteCarloFallbackDeterministic(t *testing.T) {
	// Force the MC path with a tiny MaxExact; identical contexts must
	// yield identical plans (deterministic seeded sampling).
	c := Context{
		N: 4, F: 1, Sent: 1,
		Delta:        interval.MustNew(-1, 1),
		OwnWidths:    []float64{4},
		Seen:         []interval.Interval{interval.MustNew(-2, 2)},
		UnseenWidths: []float64{3, 5},
		Step:         0.5,
		MaxExact:     2,
		MCSamples:    40,
	}
	p1 := NewOptimal().Plan(c)
	p2 := NewOptimal().Plan(c) // fresh cache: recomputed from scratch
	if !p1[0].Equal(p2[0]) {
		t.Fatalf("MC fallback nondeterministic: %v vs %v", p1, p2)
	}
}

// TestOptimalMemoKeysSearchBudgets pins the plan-memo key over the
// search budgets: one Optimal that plans a context exactly and then
// plans the same fields with MaxExact 1 (forcing Monte Carlo sampling)
// must return the sampled plan, not replay the memoized exact one.
func TestOptimalMemoKeysSearchBudgets(t *testing.T) {
	exact := Context{
		N: 3, F: 1, Sent: 1,
		Delta:        interval.MustNew(-0.5, 0.5),
		OwnWidths:    []float64{2},
		Seen:         []interval.Interval{interval.MustNew(-1.5, 1.5)},
		UnseenWidths: []float64{2},
		Step:         0.5,
	}
	sampled := exact
	sampled.MaxExact = 1
	wantExact := append([]interval.Interval(nil), NewOptimal().Plan(exact)...)
	wantSampled := append([]interval.Interval(nil), NewOptimal().Plan(sampled)...)
	if wantExact[0].Equal(wantSampled[0]) {
		t.Fatalf("fixture: exact and sampled plans coincide (%v)", wantExact)
	}
	o := NewOptimal()
	if got := o.Plan(exact); !got[0].Equal(wantExact[0]) {
		t.Fatalf("exact plan = %v, want %v", got, wantExact)
	}
	if got := o.Plan(sampled); !got[0].Equal(wantSampled[0]) {
		t.Fatalf("MaxExact=1 after an exact plan = %v, want %v", got, wantSampled)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Optimal, *Context)
	}{
		{"MCSamples", func(_ *Optimal, c *Context) { c.MCSamples = 7 }},
		{"MaxTuples", func(o *Optimal, _ *Context) { o.MaxTuples = 3 }},
	} {
		o := NewOptimal()
		c := exact
		k0 := o.hashContext(c)
		tc.mutate(o, &c)
		if k := o.hashContext(c); k.hash == k0.hash || k.confirm == k0.confirm {
			t.Errorf("%s does not reach both memo hashes", tc.name)
		}
	}
}

// batchedPlan runs the general batched search on ctx with a fresh
// Optimal, bypassing the row search — the oracle searchRows must match.
func batchedPlan(ctx Context) []interval.Interval {
	o := NewOptimal()
	cands, fallback, ok := o.prepare(ctx)
	if !ok {
		return fallback
	}
	return o.searchBatched(ctx, cands, fallback)
}

// randomFullKnowledgeContext draws a single-world context placing two
// intervals: full knowledge (N-2 seen intervals, none unseen), or, for
// about one in five, one unseen sensor resolved by a single Monte Carlo
// world, which also reaches the passive regime. grid selects integer
// endpoints, widths and step, where width ties between tuples and with
// the fallback are common.
func randomFullKnowledgeContext(rng *rand.Rand, grid bool) Context {
	n := 4 + rng.Intn(4)
	f := 1 + rng.Intn(n-2)
	val := func(span int) float64 {
		if grid {
			return float64(rng.Intn(2*span+1) - span)
		}
		return (rng.Float64()*2 - 1) * float64(span)
	}
	width := func() float64 {
		if grid {
			return float64(1 + rng.Intn(6))
		}
		return 0.5 + 5*rng.Float64()
	}
	c := Context{N: n, F: f, Step: 1}
	if !grid {
		c.Step = []float64{0.5, 0.3, 0.75}[rng.Intn(3)]
	}
	c.Delta = interval.MustCentered(val(1), width()/2)
	c.OwnWidths = []float64{width(), width()}
	nSeen := n - 2
	if rng.Intn(5) == 0 {
		nSeen = rng.Intn(n - 2)
		c.MaxExact, c.MCSamples = 1, 1
		for u := 0; u < n-2-nSeen; u++ {
			c.UnseenWidths = append(c.UnseenWidths, width())
		}
	}
	for s := 0; s < nSeen; s++ {
		c.Seen = append(c.Seen, interval.MustCentered(val(3), width()))
	}
	if nSeen > 0 && rng.Intn(3) == 0 {
		c.OwnSent = []interval.Interval{c.Seen[rng.Intn(nSeen)]}
	}
	c.Sent = nSeen
	return c
}

// TestOptimalFullKnowledgeMatchesBatchedSearch is the differential
// oracle for the row search: on random single-world two-placement
// contexts, Plan (which takes searchRows) must return bit for bit the
// plan of the batched search called directly. The counters make sure
// the draw covers what makes the argmax delicate: fallback ties, rows
// whose tuples are all unstealthy, and optima reached in several rows.
func TestOptimalFullKnowledgeMatchesBatchedSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	var rowPath, fallbackTies, deadRows, multiRow int
	for trial := 0; trial < 4000; trial++ {
		c := randomFullKnowledgeContext(rng, trial%2 == 0)
		if err := c.Validate(); err != nil {
			t.Fatalf("fixture: %v", err)
		}
		want := batchedPlan(c)
		o := NewOptimal()
		got := o.Plan(c)
		if len(got) != len(want) || !got[0].Equal(want[0]) || !got[1].Equal(want[1]) {
			t.Fatalf("ctx=%+v: row search %v, batched search %v", c, got, want)
		}
		if len(o.eval.sweeps) != 1 || c.N-c.F-1 <= 0 || o.rows == nil {
			continue
		}
		rowPath++
		best, hits := math.Inf(-1), 0
		for _, r := range o.rows {
			if r.arg < 0 {
				continue
			}
			if math.IsInf(r.best, -1) {
				deadRows++
			}
			switch {
			case r.best > best:
				best, hits = r.best, 1
			case r.best == best:
				hits++
			}
		}
		if hits > 1 {
			multiRow++
		}
		if got[0].Equal(o.fallback[0]) && got[1].Equal(o.fallback[1]) && !math.IsInf(best, -1) {
			if w, ok := o.eval.sweeps[0].WidthWith(o.fallback, c.F); ok && w == best {
				fallbackTies++
			}
		}
	}
	t.Logf("row path %d, fallback ties %d, dead rows %d, multi-row optima %d",
		rowPath, fallbackTies, deadRows, multiRow)
	if rowPath < 1000 || fallbackTies == 0 || deadRows == 0 || multiRow == 0 {
		t.Fatalf("draw too narrow: row path %d, fallback ties %d, dead rows %d, multi-row optima %d",
			rowPath, fallbackTies, deadRows, multiRow)
	}
}

// FuzzOptimalFullKnowledge drives the row search against the batched
// oracle on fuzzer-chosen single-world contexts.
func FuzzOptimalFullKnowledge(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 11, 2014} {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	f.Fuzz(func(t *testing.T, seed int64, grid bool) {
		c := randomFullKnowledgeContext(rand.New(rand.NewSource(seed)), grid)
		want := batchedPlan(c)
		got := NewOptimal().Plan(c)
		if len(got) != len(want) || !got[0].Equal(want[0]) || !got[1].Equal(want[1]) {
			t.Fatalf("ctx=%+v: row search %v, batched search %v", c, got, want)
		}
	})
}

// randomShiftableContext draws a full-knowledge context whose keyed
// values are all dyadic (multiples of 1, 1/2, 1/4 or 1/64), placing one
// or two intervals at a step between 0.25 and 2, sometimes with an
// OwnSent interval, and sometimes with N-F-1 <= 0 (no stealth
// obligation). Full knowledge means Sent = N-k >= N-F-k, so these
// contexts are always Active: the Passive regime needs unseen sensors,
// which keep the absolute key.
func randomShiftableContext(rng *rand.Rand) Context {
	k := 1 + rng.Intn(2)
	n := k + 1 + rng.Intn(4)
	f := rng.Intn(n)
	unit := []float64{1, 0.5, 0.25, 1.0 / 64}[rng.Intn(4)]
	val := func(span float64) float64 {
		m := int(span / unit)
		return unit * float64(rng.Intn(2*m+1)-m)
	}
	width := func() float64 { return unit * float64(1+rng.Intn(int(6/unit))) }
	c := Context{N: n, F: f, Sent: n - k}
	c.Step = []float64{0.25, 0.5, 0.75, 1, 1.5, 2}[rng.Intn(6)]
	lo := val(2)
	c.Delta = interval.Interval{Lo: lo, Hi: lo + val(1)*float64(rng.Intn(2))}
	if c.Delta.Hi < c.Delta.Lo {
		c.Delta.Lo, c.Delta.Hi = c.Delta.Hi, c.Delta.Lo
	}
	for i := 0; i < k; i++ {
		c.OwnWidths = append(c.OwnWidths, width())
	}
	for i := 0; i < n-k; i++ {
		lo := val(4)
		c.Seen = append(c.Seen, interval.Interval{Lo: lo, Hi: lo + width()})
	}
	if rng.Intn(3) == 0 {
		c.OwnSent = []interval.Interval{c.Seen[rng.Intn(n-k)]}
	}
	return c
}

// translate returns c with every coordinate shifted by t.
func translate(c Context, t float64) Context {
	c.Delta = interval.Interval{Lo: c.Delta.Lo + t, Hi: c.Delta.Hi + t}
	shift := func(ivs []interval.Interval) []interval.Interval {
		out := make([]interval.Interval, len(ivs))
		for i, iv := range ivs {
			out[i] = interval.Interval{Lo: iv.Lo + t, Hi: iv.Hi + t}
		}
		return out
	}
	c.Seen = shift(c.Seen)
	if c.OwnSent != nil {
		c.OwnSent = shift(c.OwnSent)
	}
	return c
}

// sameBits reports whether two plans are equal bit for bit.
func sameBits(a, b []interval.Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Lo) != math.Float64bits(b[i].Lo) ||
			math.Float64bits(a[i].Hi) != math.Float64bits(b[i].Hi) {
			return false
		}
	}
	return true
}

// checkShift is the translation property behind the shift-canonical
// memo: for a context the predicate admits, the plan of the copy
// translated by t is the plan translated by t, bit for bit — both when
// searched fresh (the zero Optimal never caches) and when the copy is a
// memo hit on the entry the original inserted.
func checkShift(t *testing.T, c Context, shift float64) {
	t.Helper()
	moved := translate(c, shift)
	var o Optimal
	if !o.hashContext(c).shifted || !o.hashContext(moved).shifted {
		t.Fatalf("ctx=%+v (t=%v): dyadic full-knowledge context not shifted", c, shift)
	}
	want := append([]interval.Interval(nil), (&Optimal{}).Plan(c)...)
	for i := range want {
		want[i].Lo += shift
		want[i].Hi += shift
	}
	if fresh := (&Optimal{}).Plan(moved); !sameBits(fresh, want) {
		t.Fatalf("ctx=%+v t=%v: fresh plan of the translated copy %v, want %v", c, shift, fresh, want)
	}
	memo := NewOptimal()
	memo.Plan(c)
	if hit := memo.Plan(moved); !sameBits(hit, want) || memo.memo.count != 1 {
		t.Fatalf("ctx=%+v t=%v: memo hit %v (entries %d), want %v from 1 entry",
			c, shift, hit, memo.memo.count, want)
	}
}

// TestOptimalShiftCanonicalMemo runs the translation property over a
// deterministic draw, and pins which contexts stay on the absolute key:
// any unseen width (the world enumeration is anchored absolutely), a
// non-dyadic value, or a value at or beyond 2^20.
func TestOptimalShiftCanonicalMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var pairs, sent int
	for trial := 0; trial < 1500; trial++ {
		c := randomShiftableContext(rng)
		if err := c.Validate(); err != nil {
			t.Fatalf("fixture: %v", err)
		}
		if len(c.OwnWidths) == 2 {
			pairs++
		}
		if len(c.OwnSent) > 0 {
			sent++
		}
		checkShift(t, c, float64(rng.Int63n(1<<24)-1<<23)/64)
	}
	if pairs < 500 || sent < 300 {
		t.Fatalf("draw too narrow: %d two-placement, %d with OwnSent", pairs, sent)
	}

	c := randomShiftableContext(rand.New(rand.NewSource(7)))
	var o Optimal
	for name, mutate := range map[string]func(*Context){
		"unseen width": func(c *Context) {
			c.N++
			c.UnseenWidths = []float64{2}
		},
		"non-dyadic Delta": func(c *Context) { c.Delta.Hi += 0.001 },
		"non-dyadic seen":  func(c *Context) { c.Seen[0].Hi += 1.0 / 128 },
		"non-dyadic width": func(c *Context) { c.OwnWidths[0] += 0.1 },
		"non-dyadic step":  func(c *Context) { c.Step = 0.1 },
		"far coordinate":   func(c *Context) { c.Seen[0].Hi = 1 << 20 },
	} {
		m := c
		m.Seen = append([]interval.Interval(nil), c.Seen...)
		m.OwnWidths = append([]float64(nil), c.OwnWidths...)
		mutate(&m)
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: fixture: %v", name, err)
		}
		if k := o.hashContext(m); k.shifted || k.shift != 0 {
			t.Errorf("%s: context keyed relative to %v, want the absolute key", name, k.shift)
		}
	}
}

// FuzzOptimalShift drives the translation property on fuzzer-chosen
// dyadic contexts and translations.
func FuzzOptimalShift(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 11, 25, 2014} {
		f.Add(seed, int64(seed*977))
		f.Add(seed, -int64(seed)<<20)
	}
	f.Fuzz(func(t *testing.T, seed, shift int64) {
		c := randomShiftableContext(rand.New(rand.NewSource(seed)))
		checkShift(t, c, float64(shift%(1<<23))/64)
	})
}

// TestPlanMemoConfirmsEveryHit forces two entries onto one slot hash
// with different confirm hashes: both must be stored, and each lookup
// must return its own plan, also after the table grows and rehashes.
func TestPlanMemoConfirmsEveryHit(t *testing.T) {
	const hash = 0x5eed
	a := []interval.Interval{{Lo: 1, Hi: 2}}
	b := []interval.Interval{{Lo: 3, Hi: 5}, {Lo: 4, Hi: 6}}
	m := &planMemo{}
	m.insert(hash, 1, a, 0)
	if got, ok := m.get(hash, 2); ok {
		t.Fatalf("slot hash alone hit: %v", got)
	}
	m.insert(hash, 2, b, 0.5)
	if m.count != 2 {
		t.Fatalf("memo holds %d entries, want 2", m.count)
	}
	check := func(when string) {
		t.Helper()
		if got, ok := m.get(hash, 1); !ok || !sameBits(got, a) {
			t.Fatalf("%s: get(hash, 1) = %v, %v; want %v", when, got, ok, a)
		}
		want := []interval.Interval{{Lo: 2.5, Hi: 4.5}, {Lo: 3.5, Hi: 5.5}}
		if got, ok := m.get(hash, 2); !ok || !sameBits(got, want) {
			t.Fatalf("%s: get(hash, 2) = %v, %v; want %v", when, got, ok, want)
		}
	}
	check("before growth")
	for i := uint64(0); i < 4*memoInitialSlots; i++ {
		m.insert(hash+(i+1)<<32, i, a, 0) // same low bits: one probe run
	}
	check("after growth")
}
