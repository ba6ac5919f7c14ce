package experiments

import (
	"math/rand"
	"strings"
	"testing"
)

func TestEnumerateSweepConfigs(t *testing.T) {
	cfgs := EnumerateSweepConfigs()
	// Multisets of size n from 6 lengths: C(n+5, n): n=3 -> 56, n=4 ->
	// 126, n=5 -> 252. fa count: n=3,4 -> 1 value; n=5 -> 2 values.
	want := 56 + 126 + 252*2
	if len(cfgs) != want {
		t.Fatalf("got %d configs, want %d", len(cfgs), want)
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		if seen[c.Name] {
			t.Fatalf("duplicate config %q", c.Name)
		}
		seen[c.Name] = true
		if c.Fa < 1 || c.Fa > c.F() {
			t.Fatalf("%s: fa out of range", c.Name)
		}
		for k := 1; k < len(c.Widths); k++ {
			if c.Widths[k] < c.Widths[k-1] {
				t.Fatalf("%s: widths not sorted", c.Name)
			}
		}
		for _, w := range c.Widths {
			if w < 5 || w > 20 {
				t.Fatalf("%s: width %v outside the paper's range", c.Name, w)
			}
		}
	}
	// The paper's Table I rows all appear in the campaign.
	for _, row := range DefaultTable1Configs() {
		found := false
		for _, c := range cfgs {
			if c.Fa != row.Fa || len(c.Widths) != len(row.Widths) {
				continue
			}
			same := true
			for k := range c.Widths {
				if c.Widths[k] != row.Widths[k] {
					same = false
					break
				}
			}
			if same {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Table I row %q missing from the campaign", row.Name)
		}
	}
}

func TestSweepSample(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := SweepSample(10, rng)
	if len(s) != 10 {
		t.Fatalf("sample size = %d", len(s))
	}
	all := SweepSample(10000, rng)
	if len(all) != len(EnumerateSweepConfigs()) {
		t.Fatalf("oversized sample should return everything")
	}
}

// A small random slice of the campaign upholds the paper's
// never-smaller observation.
func TestRunSweepSampleShape(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var cfgs []Table1Config
	// Keep the test fast: only n=3 configs, fa=1.
	for _, c := range SweepSample(1000, rng) {
		if c.N() == 3 {
			cfgs = append(cfgs, c)
		}
		if len(cfgs) == 4 {
			break
		}
	}
	res, err := RunCampaign(CampaignOptions{Table1Options: Table1Options{MeasureStep: 1, AttackerStep: 1}, Configs: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	report := SweepReport(res)
	if !strings.Contains(report, "never better") {
		t.Fatalf("report:\n%s", report)
	}
}

func TestSweepReportViolations(t *testing.T) {
	res := SweepResult{Violations: []string{"cfg X: desc 1 < asc 2"}}
	report := SweepReport(res)
	if !strings.Contains(report, "VIOLATIONS") {
		t.Fatalf("report must surface violations:\n%s", report)
	}
}
