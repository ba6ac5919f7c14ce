package experiments

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"sensorfusion/internal/platoon"
	"sensorfusion/internal/schedule"
)

// These tests pin the campaign engine's headline guarantee: for a fixed
// seed, running with 1, 2, or NumCPU workers produces results identical
// to the serial path — not approximately, but bit-for-bit.

func workerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

// coarse keeps the equivalence runs cheap; determinism does not depend on
// the tuning. Step 1 divides every campaign width exactly, so correct
// readings always contain the truth.
func coarse(parallel int) Table1Options {
	return Table1Options{
		MeasureStep: 1, AttackerStep: 1,
		MaxExact: 200, MCSamples: 60,
		Parallel: parallel, Seed: 17,
	}
}

func TestTable1MatchesSerialForAnyWorkerCount(t *testing.T) {
	cfgs := DefaultTable1Configs()[:2]

	// Serial reference: the plain per-row loop, no engine involved.
	want := make([]Table1Row, len(cfgs))
	for k, cfg := range cfgs {
		row, err := Table1Run(cfg, coarse(1))
		if err != nil {
			t.Fatal(err)
		}
		want[k] = row
	}

	for _, workers := range workerCounts() {
		got, err := Table1(cfgs, coarse(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: rows diverge from serial path:\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}

func TestTable2MatchesSerialForAnyWorkerCount(t *testing.T) {
	const steps, seed = 120, int64(2014)

	// Serial reference: the pre-engine loop over the three schedules.
	kinds := []schedule.Kind{schedule.Ascending, schedule.Descending, schedule.Random}
	type pcts struct{ up, lo float64 }
	want := make([]pcts, len(kinds))
	for k, kind := range kinds {
		runner, err := platoon.NewRunner(platoon.NewParams(kind), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.Run(steps, false)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = pcts{100 * res.UpperRate(), 100 * res.LowerRate()}
	}

	for _, workers := range workerCounts() {
		rows, err := Table2(Table2Options{Steps: steps, Seed: seed, Parallel: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for k, r := range rows {
			if r.UpperPct != want[k].up || r.LowerPct != want[k].lo {
				t.Fatalf("workers=%d, %s: got (%v, %v), serial path produced (%v, %v)",
					workers, r.Schedule, r.UpperPct, r.LowerPct, want[k].up, want[k].lo)
			}
		}
	}
}

func TestSweepOutputByteIdenticalAcrossWorkerCounts(t *testing.T) {
	cfgs := EnumerateSweepConfigs()[:4] // n=3 slice, cheap

	ref := ""
	for _, workers := range workerCounts() {
		res, err := RunCampaign(CampaignOptions{Table1Options: coarse(workers), Configs: cfgs})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		report := SweepReport(res)
		if ref == "" {
			ref = report
			continue
		}
		if report != ref {
			t.Fatalf("workers=%d: sweep report differs:\n%s\n--- vs workers=1 ---\n%s", workers, report, ref)
		}
	}
}

func TestCampaignSamplingIsSeedDeterministic(t *testing.T) {
	// The sample draw itself must be a pure function of the seed.
	names := func(seed int64) []string {
		cfgs := SweepSample(10, rand.New(rand.NewSource(seed)))
		out := make([]string, len(cfgs))
		for k, c := range cfgs {
			out[k] = c.Name
		}
		return out
	}
	if !reflect.DeepEqual(names(5), names(5)) {
		t.Fatal("same seed produced different samples")
	}
	if reflect.DeepEqual(names(5), names(6)) {
		t.Fatal("different seeds produced the same sample (suspicious)")
	}
}

func TestRunCampaignOnExplicitSliceMatchesAcrossWorkerCounts(t *testing.T) {
	cfgs := EnumerateSweepConfigs()[:3]
	var ref SweepResult
	for _, workers := range workerCounts() {
		res, err := RunCampaign(CampaignOptions{Table1Options: coarse(workers), Configs: cfgs})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("workers=%d: campaign result diverged:\n%+v\nvs workers=1\n%+v", workers, res, ref)
		}
	}
}
