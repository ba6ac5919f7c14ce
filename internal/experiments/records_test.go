package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sensorfusion/internal/cache"
	"sensorfusion/internal/results"
	"sensorfusion/internal/schedule"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenCompare checks got against testdata/<name>, rewriting the file
// under -update.
func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiments -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestTable1RecordsGoldenJSONL pins the exact JSONL bytes of the
// streamed Table I records: the shard/merge interchange format is a
// compatibility surface, so any encoding or metric-schema change must
// show up as a diff here.
func TestTable1RecordsGoldenJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1Records(DefaultTable1Configs()[:2], coarse(0), results.NewJSONL(&buf)); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "table1.jsonl.golden", buf.Bytes())
}

// TestTable1RecordsGoldenCSV pins the CSV rendering of the same stream.
func TestTable1RecordsGoldenCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1Records(DefaultTable1Configs()[:2], coarse(0), results.NewCSV(&buf)); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "table1.csv.golden", buf.Bytes())
}

// streamCampaignJSONL runs the campaign options into an in-memory JSONL
// buffer and returns the bytes.
func streamCampaignJSONL(t *testing.T, opts CampaignOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	violations, err := StreamCampaign(opts, results.NewJSONL(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("never-smaller violations: %v", violations)
	}
	return buf.Bytes()
}

// TestStreamedCampaignByteIdenticalAcrossWorkerCounts extends the
// engine's worker-count-invariance contract to the streamed sink: the
// JSONL bytes, not just the collected rows, must match the serial run.
func TestStreamedCampaignByteIdenticalAcrossWorkerCounts(t *testing.T) {
	cfgs := EnumerateSweepConfigs()[:6]
	ref := streamCampaignJSONL(t, CampaignOptions{Table1Options: coarse(1), Configs: cfgs})
	for _, workers := range []int{2, runtime.NumCPU()} {
		got := streamCampaignJSONL(t, CampaignOptions{Table1Options: coarse(workers), Configs: cfgs})
		if !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d: streamed JSONL differs from serial:\n%s\n--- vs ---\n%s", workers, got, ref)
		}
	}
}

// TestShardMergeByteIdentical is the acceptance criterion of the shard
// workflow: for any m-way partition, concatenating the shard outputs in
// any order and merging them reproduces the unsharded stream
// byte-for-byte.
func TestShardMergeByteIdentical(t *testing.T) {
	cfgs := EnumerateSweepConfigs()[:7] // deliberately not divisible by 2 or 3
	unsharded := streamCampaignJSONL(t, CampaignOptions{Table1Options: coarse(2), Configs: cfgs})
	for _, m := range []int{1, 2, 3} {
		var all []results.Record
		// Feed shards to the merge in reverse order to prove ordering
		// comes from record indices, not file order.
		for i := m - 1; i >= 0; i-- {
			shard := streamCampaignJSONL(t, CampaignOptions{
				Table1Options: coarse(2), Configs: cfgs,
				Shard: ShardSpec{Index: i, Count: m},
			})
			recs, err := results.ReadJSONL(bytes.NewReader(shard))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, recs...)
		}
		var merged bytes.Buffer
		reorder := results.NewReorder(results.NewJSONL(&merged), 0)
		for _, rec := range all {
			if err := reorder.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := reorder.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(merged.Bytes(), unsharded) {
			t.Fatalf("m=%d: merged shards differ from unsharded run:\n%s\n--- vs ---\n%s",
				m, merged.Bytes(), unsharded)
		}
		if len(CheckNeverSmaller(all)) != 0 {
			t.Fatalf("m=%d: merged set reports violations", m)
		}
	}
}

// TestShardPlanPartitions checks the deterministic partition: shards are
// disjoint, cover everything, and keep global indices.
func TestShardPlanPartitions(t *testing.T) {
	cfgs := EnumerateSweepConfigs()[:10]
	const m = 3
	seen := map[int]string{}
	for i := 0; i < m; i++ {
		mine, global, err := (CampaignOptions{Configs: cfgs, Shard: ShardSpec{Index: i, Count: m}}).plan()
		if err != nil {
			t.Fatal(err)
		}
		if len(mine) != len(global) {
			t.Fatalf("shard %d: %d configs, %d indices", i, len(mine), len(global))
		}
		for k, g := range global {
			if g%m != i {
				t.Fatalf("shard %d holds global index %d", i, g)
			}
			if prev, dup := seen[g]; dup {
				t.Fatalf("index %d in two shards (%s)", g, prev)
			}
			seen[g] = mine[k].Name
			if cfgs[g].Name != mine[k].Name {
				t.Fatalf("shard %d position %d: got %s, want %s", i, k, mine[k].Name, cfgs[g].Name)
			}
		}
	}
	if len(seen) != len(cfgs) {
		t.Fatalf("shards cover %d of %d configs", len(seen), len(cfgs))
	}
	if _, _, err := (CampaignOptions{Configs: cfgs, Shard: ShardSpec{Index: 3, Count: 3}}).plan(); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

func TestParseShard(t *testing.T) {
	good := map[string]ShardSpec{
		"":         {},
		"0/4":      {Index: 0, Count: 4},
		"3/4":      {Index: 3, Count: 4},
		"0-5,9":    {Indices: []int{0, 1, 2, 3, 4, 5, 9}},
		"5,":       {Indices: []int{5}},
		"2,4,8-10": {Indices: []int{2, 4, 8, 9, 10}},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"4/4", "-1/4", "1", "a/b", "1/0", "1/-2", "5-3", "3,2", "4,4", "a-b", ","} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
	// The explicit form round-trips through String (the coordinator
	// stores and dispatches shard index sets in that rendering).
	for _, indices := range [][]int{{3}, {0, 1, 2}, {2, 5, 6, 7, 11}} {
		spec := ShardSpec{Indices: indices}
		back, err := ParseShard(spec.String())
		if err != nil || !reflect.DeepEqual(back.Indices, indices) {
			t.Errorf("round-trip %v -> %q -> %v (%v)", indices, spec.String(), back.Indices, err)
		}
	}
}

// TestCampaignCacheWarmRunSkipsSimulation is the cache acceptance
// criterion: a second run over the same configurations performs zero
// simulations (every Get hits) and produces byte-identical records.
func TestCampaignCacheWarmRunSkipsSimulation(t *testing.T) {
	dir := t.TempDir()
	cfgs := EnumerateSweepConfigs()[:5]
	run := func() ([]byte, *cache.Store) {
		store, err := cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		opts := coarse(2)
		opts.Cache = store
		var buf bytes.Buffer
		if _, err := StreamCampaign(CampaignOptions{Table1Options: opts, Configs: cfgs}, results.NewJSONL(&buf)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), store
	}
	// The lookup unit is one PART of a configuration (each of the three
	// independent expectations probes the store before computing), so a
	// cold run misses — and a warm run hits — table1PartCount times per
	// configuration. What must stay invariant: zero hits while cold,
	// zero misses (hence zero simulations) while warm.
	lookups := int64(table1PartCount * len(cfgs))
	cold, s1 := run()
	if s1.Misses() != lookups || s1.Hits() != 0 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/%d", s1.Hits(), s1.Misses(), lookups)
	}
	warm, s2 := run()
	if s2.Misses() != 0 || s2.Hits() != lookups {
		t.Fatalf("warm run: hits=%d misses=%d, want %d/0 — simulations ran", s2.Hits(), s2.Misses(), lookups)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm run not byte-identical:\n%s\n--- vs ---\n%s", warm, cold)
	}
}

// TestCacheKeyDiscriminatesOptions: changing any result-bearing knob
// must miss the cache instead of serving a stale row.
func TestCacheKeyDiscriminatesOptions(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTable1Configs()[0]
	base := coarse(1)
	base.Cache = store
	if _, err := Table1Run(cfg, base); err != nil {
		t.Fatal(err)
	}
	changed := base
	changed.MCSamples = base.MCSamples + 1
	if _, err := Table1Run(cfg, changed); err != nil {
		t.Fatal(err)
	}
	if store.Misses() != 2 {
		t.Fatalf("changed options hit the old entry (misses=%d, want 2)", store.Misses())
	}
	// Same options again: hit.
	if _, err := Table1Run(cfg, base); err != nil {
		t.Fatal(err)
	}
	if store.Hits() != 1 {
		t.Fatalf("identical re-run missed (hits=%d)", store.Hits())
	}
}

// TestRecordsAdaptersAgreeWithSliceAPIs: the streaming record form and
// the legacy slice form of each generator must describe the same
// results.
func TestRecordsAdaptersAgreeWithSliceAPIs(t *testing.T) {
	cfgs := DefaultTable1Configs()[:2]
	rows, err := Table1(cfgs, coarse(2))
	if err != nil {
		t.Fatal(err)
	}
	var col results.Collector
	if err := Table1Records(cfgs, coarse(2), &col); err != nil {
		t.Fatal(err)
	}
	if len(col.Records) != len(rows) {
		t.Fatalf("%d records for %d rows", len(col.Records), len(rows))
	}
	for k, rec := range col.Records {
		if rec.Kind != "table1" || rec.Index != k || rec.Config != rows[k].Config.Name {
			t.Fatalf("record %d header mismatch: %+v", k, rec)
		}
		if rec.Digest == "" {
			t.Fatalf("record %d missing digest", k)
		}
		if asc, _ := rec.Metric("asc"); asc != rows[k].Asc {
			t.Fatalf("record %d asc %v != row %v", k, asc, rows[k].Asc)
		}
		if desc, _ := rec.Metric("desc"); desc != rows[k].Desc {
			t.Fatalf("record %d desc %v != row %v", k, desc, rows[k].Desc)
		}
		if combos, _ := rec.Metric("combos"); combos != float64(rows[k].Combos) {
			t.Fatalf("record %d combos %v != row %v", k, combos, rows[k].Combos)
		}
	}

	t2rows, err := Table2(Table2Options{Steps: 80, Seed: 2014, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	var t2col results.Collector
	if err := Table2Records(Table2Options{Steps: 80, Seed: 2014, Parallel: 2}, &t2col); err != nil {
		t.Fatal(err)
	}
	for k, rec := range t2col.Records {
		if rec.Config != t2rows[k].Schedule {
			t.Fatalf("table2 record %d: %s != %s", k, rec.Config, t2rows[k].Schedule)
		}
		if up, _ := rec.Metric("upper_pct"); up != t2rows[k].UpperPct {
			t.Fatalf("table2 record %d upper_pct mismatch", k)
		}
	}

	var figCol results.Collector
	figFailures, err := FiguresRecords(2, &figCol)
	if err != nil {
		t.Fatal(err)
	}
	if len(figFailures) != 0 {
		t.Fatalf("figures report failures: %v", figFailures)
	}
	if len(figCol.Records) != 5 {
		t.Fatalf("%d figure records", len(figCol.Records))
	}
	for k, rec := range figCol.Records {
		if ok, _ := rec.Metric("ok"); ok != 1 {
			t.Fatalf("figure record %d reports failure: %+v", k, rec)
		}
	}

	var stratCol results.Collector
	if err := CompareStrategiesRecords([]float64{5, 11, 17}, 1, schedule.Descending, coarse(2), &stratCol); err != nil {
		t.Fatal(err)
	}
	if len(stratCol.Records) != 5 {
		t.Fatalf("%d strategy records", len(stratCol.Records))
	}
	if stratCol.Records[0].Config != "null" || stratCol.Records[4].Config != "optimal" {
		t.Fatalf("strategy order drifted: %s .. %s", stratCol.Records[0].Config, stratCol.Records[4].Config)
	}
}

// TestStealthViolationIsAnError pins the Table1Run satellite fix: a
// detector firing surfaces as an error, and per-schedule combos always
// agree.
func TestStealthViolationIsAnError(t *testing.T) {
	row, err := Table1Run(DefaultTable1Configs()[0], coarse(2))
	if err != nil {
		t.Fatal(err)
	}
	if row.AscCombos != row.DescCombos || row.Combos != row.AscCombos {
		t.Fatalf("per-schedule combos disagree: %+v", row)
	}
	if row.AscDetections != 0 || row.DescDetections != 0 || row.Detections != 0 {
		t.Fatalf("detections leaked into a returned row: %+v", row)
	}
}

// TestCacheHitKeepsCallerConfig: the table1 and campaign generators
// share cache entries for the same (widths, fa, tuning, seed), but
// their Config labels and paper reference values differ — a hit must
// replay only computed results, never the writing generator's identity
// fields.
func TestCacheHitKeepsCallerConfig(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := coarse(1)
	opts.Cache = store

	// Warm through the table1 generator's config (curly-brace label,
	// paper values set).
	paperCfg := DefaultTable1Configs()[0]
	cold, err := Table1Run(paperCfg, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Hit through the campaign enumeration's config for the same widths
	// and fa (bracket label, zero paper values).
	campaignCfg := Table1Config{
		Name:   "n=3, fa=1, L=[5 11 17]",
		Widths: []float64{5, 11, 17},
		Fa:     1,
	}
	warm, err := Table1Run(campaignCfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if store.Hits() != 1 {
		t.Fatalf("expected a shared-entry hit, got hits=%d misses=%d", store.Hits(), store.Misses())
	}
	if !reflect.DeepEqual(warm.Config, campaignCfg) {
		t.Fatalf("cache hit replayed the writer's config: %+v", warm.Config)
	}
	if warm.Asc != cold.Asc || warm.Desc != cold.Desc || warm.Combos != cold.Combos {
		t.Fatalf("computed fields diverged on hit: %+v vs %+v", warm, cold)
	}
}

// TestTable1RunRefusesMisplacedEntry: a cache entry whose self-digest
// is not the key it sits under — another key's digest, or none at all —
// is refused by both the serial and the streamed evaluation instead of
// being replayed, and MeasuredCost ignores its timing.
func TestTable1RunRefusesMisplacedEntry(t *testing.T) {
	cfg := Table1Config{Name: "t", Widths: []float64{5, 8, 11}, Fa: 1}
	for _, digest := range []string{"other", ""} {
		store, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts := coarse(1)
		opts.Cache = store
		key := opts.withDefaults().digest(cfg)
		if err := store.Put(key, table1Entry{Digest: digest, ElapsedNS: 5}); err != nil {
			t.Fatal(err)
		}
		if _, err := Table1Run(cfg, opts); err == nil || !strings.Contains(err.Error(), "misplaced") {
			t.Fatalf("digest %q: Table1Run replayed the entry: %v", digest, err)
		}
		if _, err := Table1([]Table1Config{cfg}, opts); err == nil || !strings.Contains(err.Error(), "misplaced") {
			t.Fatalf("digest %q: streamed run replayed the entry: %v", digest, err)
		}
		if _, ok, err := MeasuredCost(cfg, opts); err != nil || ok {
			t.Fatalf("digest %q: MeasuredCost read the entry: ok=%v err=%v", digest, ok, err)
		}
	}
}
