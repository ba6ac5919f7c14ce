package experiments

import (
	"fmt"
	"math/rand"

	"sensorfusion/internal/attack"
	"sensorfusion/internal/campaign"
	"sensorfusion/internal/fusion"
	"sensorfusion/internal/interval"
	"sensorfusion/internal/render"
	"sensorfusion/internal/results"
	"sensorfusion/internal/schedule"
	"sensorfusion/internal/sim"
)

// Claim is a programmatically checked property that a figure
// demonstrates. The test suite asserts OK for every claim of every
// figure; the CLI prints them.
type Claim struct {
	Desc   string
	OK     bool
	Detail string
}

// Figure bundles the diagrams and claims reproducing one figure of the
// paper.
type Figure struct {
	ID     string
	Title  string
	Diags  []*render.Diagram
	Claims []Claim
}

// AllClaimsHold reports whether every claim checked out.
func (f Figure) AllClaimsHold() bool {
	for _, c := range f.Claims {
		if !c.OK {
			return false
		}
	}
	return true
}

// String renders the figure: title, diagrams, claims.
func (f Figure) String() string {
	out := fmt.Sprintf("%s: %s\n\n", f.ID, f.Title)
	for _, d := range f.Diags {
		out += d.String() + "\n"
	}
	for _, c := range f.Claims {
		mark := "ok"
		if !c.OK {
			mark = "FAILED"
		}
		out += fmt.Sprintf("  [%s] %s", mark, c.Desc)
		if c.Detail != "" {
			out += " — " + c.Detail
		}
		out += "\n"
	}
	return out
}

// Figure1 reproduces Fig. 1: Marzullo's fusion interval for three values
// of f over five sensor intervals; uncertainty grows with f.
func Figure1() (Figure, error) {
	ivs := []interval.Interval{
		interval.MustNew(0, 6),
		interval.MustNew(1, 4),
		interval.MustNew(2, 7),
		interval.MustNew(3, 9),
		interval.MustNew(3.5, 5),
	}
	fig := Figure{ID: "Fig1", Title: "Marzullo's fusion interval for f = 0, 1, 2"}
	d := &render.Diagram{Title: "five abstract sensors"}
	for k, iv := range ivs {
		d.Add(fmt.Sprintf("s%d", k+1), iv, false)
	}
	var widths []float64
	for f := 0; f <= 2; f++ {
		s, err := fusion.Fuse(ivs, f)
		if err != nil {
			return Figure{}, err
		}
		d.AddFused(fmt.Sprintf("S(f=%d)", f), s)
		widths = append(widths, s.Width())
	}
	fig.Diags = append(fig.Diags, d)
	grow := widths[0] <= widths[1] && widths[1] <= widths[2] && widths[0] < widths[2]
	fig.Claims = append(fig.Claims, Claim{
		Desc:   "fusion interval grows with f",
		OK:     grow,
		Detail: fmt.Sprintf("|S| = %.2f, %.2f, %.2f for f=0,1,2", widths[0], widths[1], widths[2]),
	})
	inter, _ := interval.IntersectAll(ivs...)
	s0, _ := fusion.Fuse(ivs, 0)
	fig.Claims = append(fig.Claims, Claim{
		Desc: "f=0 fusion is the intersection of all intervals",
		OK:   s0.Equal(inter),
	})
	hull, _ := interval.HullAll(ivs...)
	s4, err := fusion.Fuse(ivs, 4)
	if err != nil {
		return Figure{}, err
	}
	fig.Claims = append(fig.Claims, Claim{
		Desc: "f=n-1 fusion is the convex hull of all intervals",
		OK:   s4.Equal(hull),
	})
	return fig, nil
}

// bestStealthyWidth returns the maximum fusion width achievable by
// placing own intervals of the given widths with full knowledge of the
// other intervals, subject to the stealth constraints — the solution of
// problem (1) by grid search.
func bestStealthyWidth(seen []interval.Interval, delta interval.Interval, ownWidths []float64, n, f int, step float64) float64 {
	ctx := attack.Context{
		N: n, F: f, Sent: len(seen),
		Delta: delta, OwnWidths: ownWidths, Seen: seen, Step: step,
	}
	plan := attack.NewOptimal().Plan(ctx)
	var sw interval.Sweeper
	sw.Preload(seen)
	fused, ok := sw.FuseWith(plan, f)
	if !ok {
		return 0
	}
	return fused.Width()
}

// Figure2 reproduces Fig. 2: with an unseen correct interval remaining,
// no single placement of the attacked interval is optimal — for each of
// two candidate placements there is an s2 that makes the other strictly
// better.
func Figure2() (Figure, error) {
	// n=3, f=1, fa=1. Seen: s1 (width 2). Unseen: s2 (width 4). The
	// attacked interval is wide (6), so the choice between a one-sided
	// attack and a straddling attack matters.
	s1 := interval.MustNew(0, 2)
	delta := interval.MustNew(-1, 5) // attacker's correct reading
	const (
		f    = 1
		wS2  = 4.0
		step = 0.5
	)
	a1 := interval.MustNew(1, 7)  // one-sided attack above ("a1(1)")
	a2 := interval.MustNew(-2, 4) // straddling attack ("a1(2)")

	// The world enumeration below fuses {s1, a, s2} for every (a, s2)
	// pair; s1 is the fixed base, the pair rides the sweeper's reused
	// extra buffers — no per-world slice or sort.
	var sw interval.Sweeper
	sw.Preload([]interval.Interval{s1})
	var pair [2]interval.Interval
	width := func(a, s2 interval.Interval) float64 {
		pair[0], pair[1] = a, s2
		fused, ok := sw.FuseWith(pair[:], f)
		if !ok {
			return 0
		}
		return fused.Width()
	}
	// Enumerate consistent worlds: truth t in s1 ∩ delta, s2 of width 4
	// containing t.
	feas, _ := s1.Intersect(delta)
	var beatsA1, beatsA2 *interval.Interval
	for t := feas.Lo; t <= feas.Hi+1e-9; t += step {
		for c := t - wS2/2; c <= t+wS2/2+1e-9; c += step {
			s2 := interval.MustCentered(c, wS2)
			w1, w2 := width(a1, s2), width(a2, s2)
			if w2 > w1+1e-9 && beatsA1 == nil {
				cp := s2
				beatsA1 = &cp
			}
			if w1 > w2+1e-9 && beatsA2 == nil {
				cp := s2
				beatsA2 = &cp
			}
		}
	}
	fig := Figure{ID: "Fig2", Title: "no optimal attack policy without full knowledge"}
	d := &render.Diagram{Title: "seen s1, two candidate attacked placements"}
	d.Add("s1 (seen)", s1, false)
	d.Add("a1(1)", a1, true)
	d.Add("a1(2)", a2, true)
	if beatsA1 != nil {
		d.Add("s2 vs a1(1)", *beatsA1, false)
	}
	if beatsA2 != nil {
		d.Add("s2 vs a1(2)", *beatsA2, false)
	}
	fig.Diags = append(fig.Diags, d)
	fig.Claims = append(fig.Claims,
		Claim{
			Desc:   "a placement of s2 exists making a1(2) strictly better than a1(1)",
			OK:     beatsA1 != nil,
			Detail: fmt.Sprintf("found %v", deref(beatsA1)),
		},
		Claim{
			Desc:   "a placement of s2 exists making a1(1) strictly better than a1(2)",
			OK:     beatsA2 != nil,
			Detail: fmt.Sprintf("found %v", deref(beatsA2)),
		},
	)
	return fig, nil
}

func deref(p *interval.Interval) string {
	if p == nil {
		return "none"
	}
	return p.String()
}

// Figure3 reproduces the two sufficient conditions of Theorem 1 under
// which an optimal attack policy exists despite unseen intervals.
func Figure3() (Figure, error) {
	fig := Figure{ID: "Fig3", Title: "Theorem 1: optimal attacks with partial knowledge"}

	// Case 1: all seen correct intervals coincide and the unseen interval
	// is small; attacking on both sides is optimal in every world.
	// n=5, f=2, fa=2, attacked widths 6; seen s1=s2=[0,4]; |s3| = 1
	// <= (6 - |S_CS∪∆,0|)/2 = 1 with ∆ = [-0.5, 5] (so S_CS∪∆,0 = [0,4]).
	{
		s1 := interval.MustNew(0, 4)
		s2 := interval.MustNew(0, 4)
		delta := interval.MustNew(-0.5, 5)
		sCS := interval.MustNew(0, 4) // s1 ∩ s2 ∩ delta
		const wOwn, wS3, step = 6.0, 1.0, 0.5
		// Attack on both sides: each attacked interval extends the seen
		// intersection by the slack (|m_min| - |S_CS∪∆,0|)/2 on BOTH
		// sides, so it contains every possible correct interval
		// (each s in CR contains a point of S_CS and |s| <= slack).
		slack := (wOwn - sCS.Width()) / 2
		a1 := interval.Interval{Lo: sCS.Lo - slack, Hi: sCS.Hi + slack} // [-1, 5]
		a2 := a1
		ok := true
		detail := ""
		// The four fixed intervals are preloaded once; each world's s3 is
		// the sweeper's one extra (f=2 is in range for n=5, so ok=false
		// can only mean what ErrNoFusion means).
		var sw interval.Sweeper
		sw.Preload([]interval.Interval{s1, s2, a1, a2})
		var extra [1]interval.Interval
		for t := sCS.Lo; t <= sCS.Hi+1e-9 && ok; t += step {
			for c := t - wS3/2; c <= t+wS3/2+1e-9; c += step {
				s3 := interval.MustCentered(c, wS3)
				extra[0] = s3
				got, fok := sw.FuseWith(extra[:], 2)
				if !fok {
					ok, detail = false, fmt.Sprintf("%v: n=5 f=2", fusion.ErrNoFusion)
					break
				}
				best := bestStealthyWidth([]interval.Interval{s1, s2, s3}, delta, []float64{wOwn, wOwn}, 5, 2, step)
				if got.Width() < best-1e-9 {
					ok = false
					detail = fmt.Sprintf("s3=%v: policy %.2f < full-knowledge optimum %.2f", s3, got.Width(), best)
					break
				}
			}
		}
		d := &render.Diagram{Title: "case 1: coincident seen intervals, both-sides attack"}
		d.Add("s1 (seen)", s1, false)
		d.Add("s2 (seen)", s2, false)
		d.Add("a1", a1, true)
		d.Add("a2", a2, true)
		fig.Diags = append(fig.Diags, d)
		fig.Claims = append(fig.Claims, Claim{
			Desc:   "case 1: both-sides attack matches the full-knowledge optimum in every world",
			OK:     ok,
			Detail: detail,
		})
	}

	// Case 2: the attacked intervals are wide enough to pin both
	// critical points l_{n-f-fa} and u_{n-f-fa}; unseen intervals are too
	// small to move them. n=5, f=2, fa=2; seen s1=[0,5], s2=[1,6];
	// l_1 = 0, u_1 = 6; attacked width 7 >= 6; ∆ = [1.5, 4.5];
	// |s3| = 1 <= min(1.5, 1.5).
	{
		s1 := interval.MustNew(0, 5)
		s2 := interval.MustNew(1, 6)
		delta := interval.MustNew(1.5, 4.5)
		const wOwn, wS3, step = 7.0, 1.0, 0.5
		lCrit, uCrit := 0.0, 6.0
		a := interval.MustNew(-0.5, 6.5) // covers [l_1, u_1]
		want := interval.Interval{Lo: lCrit, Hi: uCrit}
		ok := true
		detail := ""
		var sw interval.Sweeper
		sw.Preload([]interval.Interval{s1, s2, a, a})
		var extra [1]interval.Interval
		for t := delta.Lo; t <= delta.Hi+1e-9 && ok; t += step {
			for c := t - wS3/2; c <= t+wS3/2+1e-9; c += step {
				s3 := interval.MustCentered(c, wS3)
				extra[0] = s3
				got, fok := sw.FuseWith(extra[:], 2)
				if !fok {
					ok, detail = false, fmt.Sprintf("%v: n=5 f=2", fusion.ErrNoFusion)
					break
				}
				if !got.Equal(want) {
					ok = false
					detail = fmt.Sprintf("s3=%v: fused %v, want %v", s3, got, want)
					break
				}
				best := bestStealthyWidth([]interval.Interval{s1, s2, s3}, delta, []float64{wOwn, wOwn}, 5, 2, step)
				if got.Width() < best-1e-9 {
					ok = false
					detail = fmt.Sprintf("s3=%v: policy %.2f < optimum %.2f", s3, got.Width(), best)
					break
				}
			}
		}
		d := &render.Diagram{Title: "case 2: attacked interval pins both critical points"}
		d.Add("s1 (seen)", s1, false)
		d.Add("s2 (seen)", s2, false)
		d.Add("a1 = a2", a, true)
		d.AddFused("S (all worlds)", want)
		fig.Diags = append(fig.Diags, d)
		fig.Claims = append(fig.Claims, Claim{
			Desc:   "case 2: fusion is exactly [l_(n-f-fa), u_(n-f-fa)] in every world and optimal",
			OK:     ok,
			Detail: detail,
		})
	}
	return fig, nil
}

// worstCaseWidthAttacked exhaustively computes the worst-case fusion
// width when the sensors in attacked are adversarial (placed anywhere on
// a grid, detection disregarded — this is the worst-case analysis of
// Section III-B) and the rest are correct (contain the truth at 0).
func worstCaseWidthAttacked(widths []float64, f int, attacked map[int]bool, span, step float64) float64 {
	n := len(widths)
	ivs := make([]interval.Interval, n)
	worst := 0.0
	// One empty-base sweeper scores every leaf of the grid recursion —
	// the Figure4 hot loop — without fusion.Fuse's per-call sorting.
	var sw interval.Sweeper
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			if fused, ok := sw.FuseWith(ivs, f); ok {
				if w := fused.Width(); w > worst {
					worst = w
				}
			}
			return
		}
		w := widths[k]
		if attacked[k] {
			for c := -span; c <= span+1e-9; c += step {
				ivs[k] = interval.MustCentered(c, w)
				rec(k + 1)
			}
		} else {
			for c := -w / 2; c <= w/2+1e-9; c += step {
				ivs[k] = interval.MustCentered(c, w)
				rec(k + 1)
			}
		}
	}
	rec(0)
	return worst
}

// Figure4 reproduces Fig. 4: attacking the largest intervals does not
// change the worst case (Theorem 3) while attacking the smallest achieves
// the absolute worst case (Theorem 4).
func Figure4() (Figure, error) {
	widths := []float64{2, 2, 2, 6, 6}
	const f = 2
	const span, step = 8.0, 1.0
	noAttack := worstCaseWidthAttacked(widths, f, nil, span, step)
	largest := worstCaseWidthAttacked(widths, f, map[int]bool{3: true, 4: true}, span, step)
	smallest := worstCaseWidthAttacked(widths, f, map[int]bool{0: true, 1: true}, span, step)
	mixed := worstCaseWidthAttacked(widths, f, map[int]bool{0: true, 4: true}, span, step)

	fig := Figure{ID: "Fig4", Title: "Theorems 3 and 4: which sensors are worth attacking"}
	// Panel (a): a worst-case configuration with the largest two attacked.
	da := &render.Diagram{Title: "(a) attacking the two largest intervals"}
	da.Add("s1 (w=2)", interval.MustNew(-1, 1), false)
	da.Add("s2 (w=2)", interval.MustNew(-1, 1), false)
	da.Add("s3 (w=2)", interval.MustNew(0, 2), false)
	da.Add("a1 (w=6)", interval.MustNew(-4, 2), true)
	da.Add("a2 (w=6)", interval.MustNew(0, 6), true)
	fig.Diags = append(fig.Diags, da)
	db := &render.Diagram{Title: "(b) attacking the two smallest intervals"}
	db.Add("a1 (w=2)", interval.MustNew(-4, -2), true)
	db.Add("a2 (w=2)", interval.MustNew(2, 4), true)
	db.Add("s3 (w=2)", interval.MustNew(-1, 1), false)
	db.Add("s4 (w=6)", interval.MustNew(-3, 3), false)
	db.Add("s5 (w=6)", interval.MustNew(-3, 3), false)
	fig.Diags = append(fig.Diags, db)

	fig.Claims = append(fig.Claims,
		Claim{
			Desc:   "Theorem 3: worst case attacking the fa largest equals the no-attack worst case",
			OK:     approxEq(largest, noAttack, 1e-9),
			Detail: fmt.Sprintf("|S_F| = %.2f vs |S_na| = %.2f", largest, noAttack),
		},
		Claim{
			Desc: "Theorem 4: attacking the fa smallest achieves the absolute worst case",
			OK:   smallest >= largest-1e-9 && smallest >= mixed-1e-9 && smallest >= noAttack-1e-9,
			Detail: fmt.Sprintf("smallest %.2f >= largest %.2f, mixed %.2f, none %.2f",
				smallest, largest, mixed, noAttack),
		},
		Claim{
			Desc:   "attacking precise sensors strictly increases the worst case here",
			OK:     smallest > noAttack+1e-9,
			Detail: fmt.Sprintf("%.2f > %.2f", smallest, noAttack),
		},
	)
	return fig, nil
}

func approxEq(a, b, eps float64) bool {
	d := a - b
	return d <= eps && d >= -eps
}

// Figure5 reproduces Fig. 5: neither schedule is better in all
// situations — on average Ascending wins (panel a), but instances exist
// where Descending produces the smaller fusion interval (panel b).
func Figure5() (Figure, error) {
	fig := Figure{ID: "Fig5", Title: "neither schedule dominates instance-by-instance"}

	// Panel (a): in expectation, Ascending is better for the system.
	widthsA := []float64{2, 8, 8}
	targetsA := []int{0}
	expect := func(widths []float64, targets []int, kind schedule.Kind) (float64, error) {
		sched, err := schedule.ForKind(kind, widths, nil, nil, nil)
		if err != nil {
			return 0, err
		}
		exp, err := sim.ExpectedWidth(sim.Setup{
			Widths: widths, F: 1, Targets: targets, Scheduler: sched,
			Strategy: attack.NewOptimal(), Step: 1, MaxExact: 600, MCSamples: 80,
		}, 1)
		if err != nil {
			return 0, err
		}
		return exp.Mean, nil
	}
	ascMean, err := expect(widthsA, targetsA, schedule.Ascending)
	if err != nil {
		return Figure{}, err
	}
	descMean, err := expect(widthsA, targetsA, schedule.Descending)
	if err != nil {
		return Figure{}, err
	}
	fig.Claims = append(fig.Claims, Claim{
		Desc:   "(a) in expectation Ascending yields the smaller fusion interval",
		OK:     ascMean <= descMean+1e-9,
		Detail: fmt.Sprintf("E|S| Asc %.3f vs Desc %.3f on L={2,8,8}, fa=1", ascMean, descMean),
	})

	// Panel (b): a single measurement combination where Descending beats
	// Ascending. Config L={5,5,5,8}, f=1, attacked sensor 1 (width 5):
	// under Ascending it transmits in slot 1 (passive, forced to send its
	// correct reading); under Descending it transmits in slot 2 — active,
	// having seen the width-8 and one width-5 interval but not the last
	// width-5 — and gambles one-sided (the paper's a_D choice). When the
	// unseen interval lands on the other side the gamble backfires and
	// the fusion interval comes out smaller than the clean one.
	widthsB := []float64{5, 5, 5, 8}
	targetsB := []int{1}
	runKind := func(kind schedule.Kind, correct []interval.Interval) (float64, error) {
		sched, err := schedule.ForKind(kind, widthsB, nil, nil, nil)
		if err != nil {
			return 0, err
		}
		s, err := sim.NewSimulator(sim.Setup{
			Widths: widthsB, F: 1, Targets: targetsB, Scheduler: sched,
			Strategy: attack.Greedy{}, Step: 1, MaxExact: 600, MCSamples: 80,
		})
		if err != nil {
			return 0, err
		}
		res, err := s.Round(correct)
		if err != nil {
			return 0, err
		}
		return res.Fused.Width(), nil
	}
	var found []interval.Interval
	var foundAsc, foundDesc float64
	correct := make([]interval.Interval, 4)
search:
	for o0 := -2.5; o0 <= 2.5; o0 += 1 {
		for o1 := -2.5; o1 <= 2.5; o1 += 1 {
			for o2 := -2.5; o2 <= 2.5; o2 += 1 {
				for o3 := -4.0; o3 <= 4.0; o3 += 1 {
					correct[0] = interval.MustCentered(o0, 5)
					correct[1] = interval.MustCentered(o1, 5)
					correct[2] = interval.MustCentered(o2, 5)
					correct[3] = interval.MustCentered(o3, 8)
					wa, err := runKind(schedule.Ascending, correct)
					if err != nil {
						return Figure{}, err
					}
					wd, err := runKind(schedule.Descending, correct)
					if err != nil {
						return Figure{}, err
					}
					if wd < wa-1e-9 {
						found = append([]interval.Interval(nil), correct...)
						foundAsc, foundDesc = wa, wd
						break search
					}
				}
			}
		}
	}
	claim := Claim{
		Desc: "(b) an instance exists where Descending yields the smaller fusion interval",
		OK:   found != nil,
	}
	if found != nil {
		claim.Detail = fmt.Sprintf("|S| Desc %.2f < Asc %.2f at %v", foundDesc, foundAsc, found)
		d := &render.Diagram{Title: "(b) instance where Descending beats Ascending"}
		for k, iv := range found {
			lbl := fmt.Sprintf("s%d", k+1)
			if k == 0 {
				lbl += " (attacked)"
			}
			d.Add(lbl, iv, k == 0)
		}
		fig.Diags = append(fig.Diags, d)
	}
	fig.Claims = append(fig.Claims, claim)
	return fig, nil
}

// figuresStream is the generator's streaming core: one engine task per
// figure, delivered to emit in figure order as they complete. Figure
// generation draws no randomness, so the stream is identical for every
// worker count.
func figuresStream(workers int, emit func(k int, f Figure) error) error {
	gens := []func() (Figure, error){Figure1, Figure2, Figure3, Figure4, Figure5}
	return campaign.Stream(len(gens), campaign.Options{Workers: workers},
		func(k int, _ *rand.Rand) (Figure, error) { return gens[k]() }, emit)
}

// FiguresParallel regenerates the five figures as campaign tasks across
// the given number of workers (<= 0 selects NumCPU).
func FiguresParallel(workers int) ([]Figure, error) {
	figs := make([]Figure, 0, 5)
	if err := figuresStream(workers, func(_ int, f Figure) error {
		figs = append(figs, f)
		return nil
	}); err != nil {
		return nil, err
	}
	return figs, nil
}

// FiguresRecords streams the figure reproductions as typed records into
// sink, one per figure: the claim counts, machine-checkable. It returns
// the IDs of figures whose claims failed so record-mode callers exit
// nonzero exactly like the report path (a failed claim is a result, so
// the record is still emitted). The sink is not flushed; the caller
// owns the stream's lifecycle.
func FiguresRecords(workers int, sink results.Sink) ([]string, error) {
	var failures []string
	err := figuresStream(workers, func(k int, f Figure) error {
		failed := 0
		for _, c := range f.Claims {
			if !c.OK {
				failed++
			}
		}
		ok := 1.0
		if failed > 0 {
			ok = 0
			failures = append(failures, f.ID)
		}
		return sink.Write(results.Record{
			Kind:   "figures",
			Index:  k,
			Config: fmt.Sprintf("%s: %s", f.ID, f.Title),
			Digest: results.Digest("figures|" + f.ID),
			Metrics: []results.Metric{
				{Key: "claims", Val: float64(len(f.Claims))},
				{Key: "failed", Val: float64(failed)},
				{Key: "ok", Val: ok},
			},
		})
	})
	if err != nil {
		return nil, err
	}
	return failures, nil
}
