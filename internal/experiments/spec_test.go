package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sensorfusion/internal/cache"
)

func TestParseLengths(t *testing.T) {
	good := map[string][]float64{
		"5":         {5},
		"5,8,11":    {5, 8, 11},
		" 5, 8 ,11": {5, 8, 11},
		"0.5,2":     {0.5, 2},
	}
	for in, want := range good {
		got, err := ParseLengths(in)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseLengths(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", ",", "5,5", "8,5", "-3", "0", "5,x"} {
		if got, err := ParseLengths(bad); err == nil {
			t.Fatalf("ParseLengths(%q) = %v, want error", bad, got)
		}
	}
}

func TestDiffSpecs(t *testing.T) {
	old := []string{"a", "b", "c"}
	cur := []string{"a", "x", "c", "d"}
	d := DiffSpecs(old, cur)
	if !reflect.DeepEqual(d.Unchanged, []int{0, 2}) {
		t.Fatalf("Unchanged = %v", d.Unchanged)
	}
	if !reflect.DeepEqual(d.Invalidated, []int{1}) {
		t.Fatalf("Invalidated = %v", d.Invalidated)
	}
	if !reflect.DeepEqual(d.New, []int{3}) {
		t.Fatalf("New = %v", d.New)
	}
	if !reflect.DeepEqual(d.Rerun(), []int{1, 3}) {
		t.Fatalf("Rerun = %v", d.Rerun())
	}

	// A digest that MOVED enumeration position is still unchanged: its
	// cache entry exists regardless of where it now sits.
	d = DiffSpecs([]string{"a", "b"}, []string{"b", "a"})
	if len(d.Unchanged) != 2 || len(d.Rerun()) != 0 {
		t.Fatalf("reordered spec diff = %+v", d)
	}

	// Identical specs re-run nothing; an empty old spec re-runs all.
	if d := DiffSpecs(old, old); len(d.Rerun()) != 0 {
		t.Fatalf("identical diff rerun = %v", d.Rerun())
	}
	d = DiffSpecs(nil, []string{"a", "b"})
	if !reflect.DeepEqual(d.New, []int{0, 1}) || len(d.Unchanged)+len(d.Invalidated) != 0 {
		t.Fatalf("from-nothing diff = %+v", d)
	}

	// Shrinking: old indices past the new length vanish silently; the
	// surviving prefix diffs index-wise.
	d = DiffSpecs([]string{"a", "b", "c"}, []string{"a", "y"})
	if !reflect.DeepEqual(d.Unchanged, []int{0}) || !reflect.DeepEqual(d.Invalidated, []int{1}) || len(d.New) != 0 {
		t.Fatalf("shrunk diff = %+v", d)
	}
}

// TestConfigDigestsLengthsEdit: editing one grid length invalidates
// exactly the configurations whose width multiset uses it — the digests
// of all-other configurations survive as values, which is what makes
// the update workflow incremental rather than a full re-run.
func TestConfigDigestsLengthsEdit(t *testing.T) {
	base := CampaignOptions{Table1Options: Table1Options{Seed: 7}, Lengths: []float64{5, 8}}
	edited := base
	edited.Lengths = []float64{5, 9}
	oldD, err := base.ConfigDigests()
	if err != nil {
		t.Fatal(err)
	}
	newD, err := edited.ConfigDigests()
	if err != nil {
		t.Fatal(err)
	}
	if len(oldD) != len(newD) || len(oldD) != len(EnumerateSweepConfigsFrom([]float64{5, 8})) {
		t.Fatalf("digest counts %d/%d", len(oldD), len(newD))
	}
	diff := DiffSpecs(oldD, newD)
	// The unchanged set is exactly the configurations built from 5s
	// alone: one multiset per n in 3..5, with n=5 carrying fa=1 and 2.
	cfgs := EnumerateSweepConfigsFrom([]float64{5, 9})
	for _, k := range diff.Unchanged {
		for _, w := range cfgs[k].Widths {
			if w != 5 {
				t.Fatalf("config %d (%s) kept its digest despite width %g", k, cfgs[k].Name, w)
			}
		}
	}
	for _, k := range diff.Invalidated {
		uses9 := false
		for _, w := range cfgs[k].Widths {
			if w == 9 {
				uses9 = true
			}
		}
		if !uses9 {
			t.Fatalf("config %d (%s) invalidated without using the edited length", k, cfgs[k].Name)
		}
	}
	if len(diff.Unchanged) == 0 || len(diff.Invalidated) == 0 {
		t.Fatalf("degenerate diff: %d unchanged, %d invalidated", len(diff.Unchanged), len(diff.Invalidated))
	}
	if len(diff.Unchanged)+len(diff.Invalidated)+len(diff.New) != len(newD) {
		t.Fatal("diff classes do not partition the new spec")
	}
}

// TestConfigDigestsIgnoreExecutionKnobs: parallelism, batching, and
// sharding shape wall-clock, never results — they must not participate
// in the spec identity.
func TestConfigDigestsIgnoreExecutionKnobs(t *testing.T) {
	base := CampaignOptions{Table1Options: Table1Options{Seed: 3}, Lengths: []float64{5, 8}}
	varied := base
	varied.Parallel = 7
	varied.Batch = 4
	varied.Shard = ShardSpec{Indices: []int{0, 1}}
	a, err := base.ConfigDigests()
	if err != nil {
		t.Fatal(err)
	}
	b, err := varied.ConfigDigests()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("execution knobs changed the spec digests")
	}
	// The seed DOES participate: it changes Monte Carlo draws.
	seeded := base
	seeded.Seed = 4
	c, err := seeded.ConfigDigests()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seed change left every digest intact")
	}
}

func TestInspectCacheEntry(t *testing.T) {
	entry := func(key string, e table1Entry) cache.Entry {
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		return cache.Entry{Key: key, Data: data}
	}
	// Healthy entry.
	if err := InspectCacheEntry(entry("k1", table1Entry{Digest: "k1", ElapsedNS: 5})); err != nil {
		t.Fatalf("healthy entry: %v", err)
	}
	// Entry without a self-digest: refused like a misplaced one.
	if err := InspectCacheEntry(entry("k3", table1Entry{ElapsedNS: 5})); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("digest-less entry: %v", err)
	}
	// Self-digest disagreeing with the key: misplaced or corrupt.
	if err := InspectCacheEntry(entry("k4", table1Entry{Digest: "other", ElapsedNS: 5})); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("misplaced entry: %v", err)
	}
	// Torn JSON.
	if err := InspectCacheEntry(cache.Entry{Key: "k5", Data: []byte("{torn")}); err == nil {
		t.Fatal("torn entry accepted")
	}
}
