package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"sensorfusion/internal/cache"
	"sensorfusion/internal/interval"
	"sensorfusion/internal/results"
	"sensorfusion/internal/verdict"
)

const scenarioTestSteps = 25

func scenarioJSONL(t *testing.T, opts ScenarioOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := results.NewJSONL(&buf)
	if err := StreamScenarios(opts, sink); err != nil {
		t.Fatalf("StreamScenarios: %v", err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// TestScenarioRecordsGoldenDigest pins the SHA-256 of the scenario
// record stream on one small fixed sample (all four suites, 200 steps,
// seed 2014: the same bytes as `repro scenarios -steps 200 -format
// json`) under every batch kernel. The attacker's plan search scores
// its placements through those kernels, so a kernel that moved a bit
// moves this digest. `-update` rewrites it; a change that moves it
// must say why.
func TestScenarioRecordsGoldenDigest(t *testing.T) {
	prev := interval.KernelName()
	defer func() {
		if err := interval.SetKernel(prev); err != nil {
			t.Fatalf("restoring kernel %q: %v", prev, err)
		}
	}()
	for _, kern := range interval.KernelNames() {
		if err := interval.SetKernel(kern); err != nil {
			t.Fatal(err)
		}
		got := scenarioJSONL(t, ScenarioOptions{Steps: 200, Seed: 2014})
		t.Run(kern, func(t *testing.T) {
			goldenCompare(t, "scenarios.jsonl.sha256.golden", fmt.Appendf(nil, "%x\n", sha256.Sum256(got)))
		})
	}
}

// TestScenarioVerdictsAllPass is the paper-claim gate: every criterion
// of every suite must PASS (or SKIP when its precondition is vacuous)
// on the default configurations.
func TestScenarioVerdictsAllPass(t *testing.T) {
	vs, err := RunScenarios(ScenarioOptions{Steps: scenarioTestSteps, Seed: 7}, nil)
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	if len(vs) == 0 {
		t.Fatal("no verdicts")
	}
	pass, fail, _ := verdict.Counts(vs)
	if fail != 0 {
		t.Fatalf("FAIL verdicts:\n%s", verdict.Report(vs))
	}
	if pass == 0 {
		t.Fatalf("no PASS verdicts:\n%s", verdict.Report(vs))
	}
	kinds := make(map[string]bool)
	for _, v := range vs {
		kinds[v.Suite] = true
	}
	for _, suite := range ScenarioSuites() {
		if !kinds["scenario-"+suite] {
			t.Errorf("no verdicts for suite %q", suite)
		}
	}
}

// TestScenarioDeterminism pins the engine-independence contract: the
// record stream is byte-identical for every worker count and batch
// size.
func TestScenarioDeterminism(t *testing.T) {
	base := ScenarioOptions{Steps: scenarioTestSteps, Seed: 11, Parallel: 1, Batch: 1}
	want := scenarioJSONL(t, base)
	for _, workers := range []int{2, runtime.NumCPU()} {
		for _, batch := range []int{1, 3} {
			opts := base
			opts.Parallel = workers
			opts.Batch = batch
			if got := scenarioJSONL(t, opts); !bytes.Equal(got, want) {
				t.Errorf("parallel=%d batch=%d: records differ from serial run", workers, batch)
			}
		}
	}
}

// TestScenarioSuiteFilterIsSubstream pins that filtering by suite
// neither reindexes nor reseeds: the filtered stream is exactly the
// full stream's records of that kind.
func TestScenarioSuiteFilterIsSubstream(t *testing.T) {
	full := ScenarioOptions{Steps: scenarioTestSteps, Seed: 3}
	var all results.Collector
	if err := StreamScenarios(full, &all); err != nil {
		t.Fatalf("full run: %v", err)
	}
	for _, suite := range ScenarioSuites() {
		opts := full
		opts.Suites = []string{suite}
		var got results.Collector
		if err := StreamScenarios(opts, &got); err != nil {
			t.Fatalf("suite %s: %v", suite, err)
		}
		var want []results.Record
		for _, rec := range all.Records {
			if rec.Kind == "scenario-"+suite {
				want = append(want, rec)
			}
		}
		if len(got.Records) != len(want) {
			t.Fatalf("suite %s: %d records, want %d", suite, len(got.Records), len(want))
		}
		for k := range want {
			if !got.Records[k].Equal(want[k]) {
				t.Errorf("suite %s record %d: filtered run diverged from full run", suite, k)
			}
		}
	}
}

// TestScenarioWarmCache pins resumability: a second run against the
// same cache recomputes nothing and emits byte-identical records.
func TestScenarioWarmCache(t *testing.T) {
	store, err := cache.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	opts := ScenarioOptions{Steps: scenarioTestSteps, Seed: 5, Cache: store}
	cold := scenarioJSONL(t, opts)
	puts := store.Puts()
	if puts == 0 {
		t.Fatal("cold run filled no cache entries")
	}
	warm := scenarioJSONL(t, opts)
	if !bytes.Equal(cold, warm) {
		t.Error("warm-cache run diverged from cold run")
	}
	if got := store.Puts(); got != puts {
		t.Errorf("warm run wrote %d new cache entries, want 0", got-puts)
	}
}

// TestScenarioShardMerge pins the shard contract: modular shards keep
// universe indices and reassemble into the unsharded stream.
func TestScenarioShardMerge(t *testing.T) {
	base := ScenarioOptions{Steps: scenarioTestSteps, Seed: 9}
	var full results.Collector
	if err := StreamScenarios(base, &full); err != nil {
		t.Fatal(err)
	}
	merged := make([]results.Record, len(full.Records))
	seen := 0
	for shard := 0; shard < 2; shard++ {
		opts := base
		opts.Shard = ShardSpec{Index: shard, Count: 2}
		var part results.Collector
		if err := StreamScenarios(opts, &part); err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		for _, rec := range part.Records {
			merged[rec.Index] = rec
			seen++
		}
	}
	if seen != len(full.Records) {
		t.Fatalf("shards produced %d records, want %d", seen, len(full.Records))
	}
	for k := range full.Records {
		if !merged[k].Equal(full.Records[k]) {
			t.Errorf("record %d: sharded run diverged from full run", k)
		}
	}
}

// TestScenarioDigests pins the digest list: one per scenario, unique,
// stable under engine knobs, sensitive to result-bearing knobs.
func TestScenarioDigests(t *testing.T) {
	opts := ScenarioOptions{Steps: scenarioTestSteps, Seed: 1}
	ds, err := ScenarioDigests(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("no digests")
	}
	uniq := make(map[string]bool)
	for _, d := range ds {
		if uniq[d] {
			t.Fatalf("duplicate digest %s", d)
		}
		uniq[d] = true
	}
	engine := opts
	engine.Parallel = 7
	engine.Batch = 3
	ds2, err := ScenarioDigests(engine)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ds {
		if ds[k] != ds2[k] {
			t.Fatalf("digest %d changed with engine knobs", k)
		}
	}
	seeded := opts
	seeded.Seed = 2
	ds3, err := ScenarioDigests(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if ds3[0] == ds[0] {
		t.Error("digest ignores the seed")
	}
}

// TestScenarioUnknownSuite pins the error path.
func TestScenarioUnknownSuite(t *testing.T) {
	err := StreamScenarios(ScenarioOptions{Suites: []string{"bogus"}}, &results.Collector{})
	if err == nil {
		t.Fatal("unknown suite accepted")
	}
}
