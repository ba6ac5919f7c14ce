// The deterministic scenario fuzzer: randomized fusion configurations
// drawn per seed, checked against the paper's soundness theorem and the
// repo's independent fusion implementations, with greedy shrinking of
// any counterexample to a minimal reproducer.

package verdict

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sensorfusion/internal/campaign"
	"sensorfusion/internal/fusion"
	"sensorfusion/internal/interval"
)

// Scenario is one end-to-end fusion configuration of the fuzzer: n
// sensors with given interval widths measuring a known truth (each
// correct sensor's interval center is offset from the truth by at most
// half its width, so correct intervals contain the truth by
// construction), of which the listed sensors are corrupted to arbitrary
// intervals. The paper's theorem says: as long as at most F sensors are
// corrupted, fusing with fault bound F yields an interval containing
// Truth. Scenario is the fuzzer's config format (canonical JSON via
// EncodeScenario/DecodeScenario) and the shared shape behind the fusion
// soundness property test.
type Scenario struct {
	// Truth is the true value of the measured variable.
	Truth float64 `json:"truth"`
	// F is the fault bound passed to fusion. The theorem's premise is
	// len(Corrupt) <= F; scenarios with more corruptions are legal but
	// make the containment claim vacuous.
	F int `json:"f"`
	// Widths are the sensors' interval widths (positive).
	Widths []float64 `json:"widths"`
	// Offsets are the per-sensor center offsets from Truth,
	// |Offsets[k]| <= Widths[k]/2 (a correct sensor's interval always
	// contains the truth).
	Offsets []float64 `json:"offsets"`
	// Corrupt lists the corrupted sensors and their replacement
	// intervals, in strictly increasing sensor order.
	Corrupt []Corruption `json:"corrupt,omitempty"`
}

// Corruption replaces one sensor's interval with an arbitrary one.
type Corruption struct {
	Sensor int     `json:"sensor"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
}

// N returns the sensor count.
func (s Scenario) N() int { return len(s.Widths) }

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Validate checks the scenario is well-formed: at least one sensor,
// positive finite widths, matching truth-containing offsets, a fault
// bound in [0, n-1], and corruptions in strictly increasing range.
func (s Scenario) Validate() error {
	n := s.N()
	if n == 0 {
		return errors.New("verdict: scenario has no sensors")
	}
	if !finite(s.Truth) {
		return fmt.Errorf("verdict: truth %v not finite", s.Truth)
	}
	if len(s.Offsets) != n {
		return fmt.Errorf("verdict: %d offsets for %d sensors", len(s.Offsets), n)
	}
	for k, w := range s.Widths {
		if !finite(w) || w <= 0 {
			return fmt.Errorf("verdict: width[%d]=%v not positive finite", k, w)
		}
		if off := s.Offsets[k]; !finite(off) || math.Abs(off) > w/2 {
			return fmt.Errorf("verdict: offset[%d]=%v exceeds half width %v (correct sensors must contain the truth)", k, off, w/2)
		}
	}
	if s.F < 0 || s.F >= n {
		return fmt.Errorf("verdict: fault bound f=%d outside [0, %d]", s.F, n-1)
	}
	last := -1
	for _, c := range s.Corrupt {
		if c.Sensor <= last {
			return fmt.Errorf("verdict: corrupt sensors not strictly increasing at %d", c.Sensor)
		}
		last = c.Sensor
		if c.Sensor >= n {
			return fmt.Errorf("verdict: corrupt sensor %d out of range", c.Sensor)
		}
		if !finite(c.Lo) || !finite(c.Hi) || c.Lo > c.Hi {
			return fmt.Errorf("verdict: corrupt interval [%v, %v] invalid", c.Lo, c.Hi)
		}
	}
	return nil
}

// Intervals materializes the sensors' intervals: correct sensors
// centered at Truth+Offset, corrupted sensors replaced wholesale.
func (s Scenario) Intervals() []interval.Interval {
	ivs := make([]interval.Interval, s.N())
	for k, w := range s.Widths {
		c := s.Truth + s.Offsets[k]
		ivs[k] = interval.Interval{Lo: c - w/2, Hi: c + w/2}
	}
	for _, c := range s.Corrupt {
		ivs[c.Sensor] = interval.Interval{Lo: c.Lo, Hi: c.Hi}
	}
	return ivs
}

// DecodeScenario parses a scenario from its canonical JSON, strictly:
// unknown fields are errors and the result must Validate. This is the
// fuzzer's config decoder and a fuzz target itself (FuzzDecodeScenario);
// no binary reads scenarios back.
func DecodeScenario(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("verdict: decode scenario: %w", err)
	}
	// A second document on the same line means a corrupted reproducer.
	if dec.More() {
		return Scenario{}, errors.New("verdict: decode scenario: trailing data")
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// EncodeScenario renders the scenario as canonical single-line JSON
// (fixed field order, shortest float forms). Decode(Encode(s)) == s and
// Encode(Decode(b)) is byte-stable for canonical b.
func EncodeScenario(s Scenario) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Scenario has no unmarshalable fields; only non-finite floats
		// could trip Marshal, and Validate rejects those.
		panic(err)
	}
	return string(b)
}

// Violation is a found claim violation: the evidence a scenario broke
// the soundness theorem or the implementations diverged.
type Violation struct {
	// Kind is "containment" (the fused interval lost the truth inside
	// budget), "no-fusion" (fusion failed inside budget), or "mismatch"
	// (fusion.Fuse disagreed with the FuseNaive oracle).
	Kind string
	// Detail is the human-readable evidence.
	Detail string
}

// CheckScenario evaluates the paper's claims on one scenario and
// returns the violation found, or nil. Three independent claims:
//
//  1. implementation agreement — fusion.Fuse (the production
//     interval.Sweeper scan) must be bit-identical to the reference
//     fusion.FuseNaive;
//  2. availability — with at most F corrupted sensors, the other n-F
//     intervals all contain the truth, so fusion must succeed;
//  3. soundness — with at most F corrupted sensors the fused interval
//     must contain the truth (the paper's central theorem).
//
// breakBudget injects one UNDECLARED corruption (the first sensor not
// listed in Corrupt is displaced off the truth) before checking: the
// attacker exceeds the budget the scenario claims to respect. This is
// the fuzzer's self-test hook — it must turn an arbitrary healthy
// scenario into a caught, shrinkable counterexample.
func CheckScenario(s Scenario, breakBudget bool) *Violation {
	ivs := s.Intervals()
	if breakBudget {
		corrupted := make(map[int]bool, len(s.Corrupt))
		for _, c := range s.Corrupt {
			corrupted[c.Sensor] = true
		}
		for k := range ivs {
			if !corrupted[k] {
				w := ivs[k].Width()
				ivs[k] = interval.Interval{Lo: s.Truth + w + 1, Hi: s.Truth + 2*w + 1}
				break
			}
		}
	}
	inBudget := len(s.Corrupt) <= s.F

	fused, err := fusion.Fuse(ivs, s.F)
	naive, errNaive := fusion.FuseNaive(ivs, s.F)
	if (err == nil) != (errNaive == nil) {
		return &Violation{Kind: "mismatch", Detail: fmt.Sprintf(
			"implementations disagree on fusibility: sweep err=%v, naive err=%v", err, errNaive)}
	}
	if err != nil {
		if !errors.Is(err, fusion.ErrNoFusion) {
			return &Violation{Kind: "error", Detail: fmt.Sprintf("fusion failed: %v", err)}
		}
		if inBudget {
			return &Violation{Kind: "no-fusion", Detail: fmt.Sprintf(
				"no fusion interval with %d corrupted <= f=%d (n=%d): %v", len(s.Corrupt), s.F, s.N(), err)}
		}
		return nil
	}
	if !fused.Equal(naive) {
		return &Violation{Kind: "mismatch", Detail: fmt.Sprintf(
			"fusion implementations diverge: sweep %v, naive %v", fused, naive)}
	}
	if inBudget && !fused.Contains(s.Truth) {
		return &Violation{Kind: "containment", Detail: fmt.Sprintf(
			"fused %v does not contain truth %v with %d corrupted <= f=%d", fused, s.Truth, len(s.Corrupt), s.F)}
	}
	return nil
}

// grid snaps a value to 1/64 so random scenarios carry exact, readable
// binary fractions instead of 17-digit floats.
func grid(x float64) float64 { return math.Round(x*64) / 64 }

// RandomScenario draws one valid scenario from rng: 3-7 sensors, a
// fault bound anywhere in [1, n-1], and between 0 and F corrupted
// sensors placed arbitrarily within ±60 of the truth. Every drawn
// scenario respects the attacker budget, so on a correct implementation
// the fuzzer finds nothing — which is the claim being tested.
func RandomScenario(rng *rand.Rand) Scenario {
	n := 3 + rng.Intn(5)
	s := Scenario{
		Truth:   grid(rng.Float64()*200 - 100),
		F:       1 + rng.Intn(n-1),
		Widths:  make([]float64, n),
		Offsets: make([]float64, n),
	}
	for k := range s.Widths {
		s.Widths[k] = grid(0.5 + rng.Float64()*19.5)
		off := grid((rng.Float64()*2 - 1) * s.Widths[k] / 2)
		if math.Abs(off) > s.Widths[k]/2 { // grid rounding overshoot
			off = 0
		}
		s.Offsets[k] = off
	}
	count := rng.Intn(s.F + 1)
	perm := rng.Perm(n)[:count]
	// Strictly increasing sensor order is the canonical form.
	for a := 1; a < len(perm); a++ {
		for b := a; b > 0 && perm[b] < perm[b-1]; b-- {
			perm[b], perm[b-1] = perm[b-1], perm[b]
		}
	}
	for _, k := range perm {
		c := s.Truth + grid((rng.Float64()*2-1)*60)
		w := grid(rng.Float64() * 10)
		s.Corrupt = append(s.Corrupt, Corruption{Sensor: k, Lo: c - w/2, Hi: c + w/2})
	}
	return s
}

// Shrink greedily minimizes a violating scenario while the violation
// persists: drop sensors, drop corruptions, lower the fault bound, then
// simplify every number toward 0 or its nearest integer. Deterministic
// (no randomness), terminates because every accepted step strictly
// shrinks a finite measure (component count, then digit complexity).
func Shrink(s Scenario, breakBudget bool) Scenario {
	violates := func(c Scenario) bool {
		return c.Validate() == nil && CheckScenario(c, breakBudget) != nil
	}
	if !violates(s) {
		return s // not a counterexample; nothing to shrink
	}
	simplify := func(x float64) []float64 {
		cands := []float64{0, math.Round(x), math.Round(x*4) / 4}
		var out []float64
		for _, c := range cands {
			if c != x {
				out = append(out, c)
			}
		}
		return out
	}
	for changed := true; changed; {
		changed = false
		// Drop whole sensors (remapping corruption indices).
		for k := 0; k < s.N() && s.N() > 1; k++ {
			cand := Scenario{Truth: s.Truth, F: s.F}
			cand.Widths = append(append([]float64(nil), s.Widths[:k]...), s.Widths[k+1:]...)
			cand.Offsets = append(append([]float64(nil), s.Offsets[:k]...), s.Offsets[k+1:]...)
			for _, c := range s.Corrupt {
				switch {
				case c.Sensor == k:
					continue
				case c.Sensor > k:
					c.Sensor--
				}
				cand.Corrupt = append(cand.Corrupt, c)
			}
			if cand.F >= cand.N() {
				cand.F = cand.N() - 1
			}
			if violates(cand) {
				s = cand
				changed = true
				k = -1 // restart over the shrunk slice
			}
		}
		// Drop corruptions.
		for k := 0; k < len(s.Corrupt); k++ {
			cand := s
			cand.Corrupt = append(append([]Corruption(nil), s.Corrupt[:k]...), s.Corrupt[k+1:]...)
			if violates(cand) {
				s = cand
				changed = true
				k--
			}
		}
		// Lower the fault bound.
		for s.F > 0 {
			cand := s
			cand.F--
			if !violates(cand) {
				break
			}
			s = cand
			changed = true
		}
		// Simplify numbers.
		tryField := func(get func(*Scenario) *float64) {
			for _, v := range simplify(*get(&s)) {
				cand := cloneScenario(s)
				*get(&cand) = v
				if violates(cand) {
					s = cand
					changed = true
					return
				}
			}
		}
		tryField(func(c *Scenario) *float64 { return &c.Truth })
		for k := range s.Widths {
			k := k
			tryField(func(c *Scenario) *float64 { return &c.Widths[k] })
			tryField(func(c *Scenario) *float64 { return &c.Offsets[k] })
		}
		for k := range s.Corrupt {
			k := k
			tryField(func(c *Scenario) *float64 { return &c.Corrupt[k].Lo })
			tryField(func(c *Scenario) *float64 { return &c.Corrupt[k].Hi })
		}
	}
	return s
}

func cloneScenario(s Scenario) Scenario {
	s.Widths = append([]float64(nil), s.Widths...)
	s.Offsets = append([]float64(nil), s.Offsets...)
	s.Corrupt = append([]Corruption(nil), s.Corrupt...)
	return s
}

// FuzzOptions configures a fuzzing run.
type FuzzOptions struct {
	// N is the number of random scenarios to draw.
	N int
	// Seed roots the per-scenario seed tree: scenario i is drawn from
	// campaign.TaskSeed(Seed, i), so a run is reproducible from (Seed,
	// N) alone and any single case from (Seed, i).
	Seed int64
	// Break arms the self-test: every scenario gets one undeclared
	// corruption beyond the claimed budget (see CheckScenario), which a
	// working fuzzer must flag and shrink. CI uses it to prove the FAIL
	// path stays live.
	Break bool
	// MaxViolations stops the scan after this many counterexamples
	// (default 3) — with Break every case violates, and shrinking each
	// is wasted work.
	MaxViolations int
}

// FuzzResult is a fuzzing run's outcome.
type FuzzResult struct {
	// Tried is the number of scenarios checked.
	Tried int
	// Verdicts holds one PASS verdict for a clean run, or one FAIL
	// verdict per violation found, each carrying the shrunk minimal
	// reproducer in Repro.
	Verdicts []Verdict
}

// Failed reports whether any violation was found.
func (r FuzzResult) Failed() bool {
	for _, v := range r.Verdicts {
		if v.Status == Fail {
			return true
		}
	}
	return false
}

// Fuzz draws N scenarios from the seed tree and checks each against the
// paper's claims, shrinking every violation to a minimal reproducer.
// Deterministic: same options, same verdicts, byte for byte.
func Fuzz(o FuzzOptions) FuzzResult {
	if o.MaxViolations <= 0 {
		o.MaxViolations = 3
	}
	res := FuzzResult{}
	violations := 0
	for i := 0; i < o.N && violations < o.MaxViolations; i++ {
		rng := rand.New(rand.NewSource(campaign.TaskSeed(o.Seed, i)))
		sc := RandomScenario(rng)
		res.Tried++
		v := CheckScenario(sc, o.Break)
		if v == nil {
			continue
		}
		violations++
		min := Shrink(sc, o.Break)
		detail := v.Detail
		if mv := CheckScenario(min, o.Break); mv != nil {
			detail = mv.Detail
		}
		res.Verdicts = append(res.Verdicts, Verdict{
			Suite:     "scenario-fuzz",
			Config:    fmt.Sprintf("seed=%d case=%d", o.Seed, i),
			Criterion: v.Kind,
			Status:    Fail,
			Reason:    detail,
			Repro:     EncodeScenario(min),
		})
	}
	if violations == 0 {
		res.Verdicts = append(res.Verdicts, Verdict{
			Suite:     "scenario-fuzz",
			Config:    fmt.Sprintf("seed=%d n=%d", o.Seed, o.N),
			Criterion: "soundness",
			Status:    Pass,
			Reason:    fmt.Sprintf("%d random scenarios, no claim violation", res.Tried),
		})
	}
	return res
}
