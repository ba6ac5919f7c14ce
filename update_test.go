package sensorfusion

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sensorfusion/internal/cache"
)

// cacheEntryKeys lists the content-addressed entries a campaign cache
// holds — the observable record of which configurations were ever
// simulated.
func cacheEntryKeys(t *testing.T, dir string) []string {
	t.Helper()
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	err = store.Scan(func(e cache.Entry) error {
		keys = append(keys, e.Key)
		return nil
	}, func(path string) {
		t.Fatalf("stray cache file %s", path)
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	return keys
}

// TestUpdateIncremental is the incremental-recompute contract end to
// end: after a completed coordinated campaign, editing ONE grid length
// and running Update must (a) re-simulate only the configurations whose
// spec digest changed — verified by cache-content accounting, not
// trust — and (b) stream merged output byte-identical to a from-scratch
// run of the edited spec.
func TestUpdateIncremental(t *testing.T) {
	state := t.TempDir()
	base := CoordinatorOptions{
		StateDir:    state,
		Workers:     2,
		Shards:      3,
		Seed:        5,
		Step:        4,
		Lengths:     []float64{5, 8},
		Balance:     true,
		MergeWindow: 16,
	}
	var first bytes.Buffer
	if _, err := Coordinate(base, NewJSONLSink(&first)); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(state, "cache")
	before := cacheEntryKeys(t, cacheDir)
	if len(before) == 0 {
		t.Fatal("completed campaign left no cache entries")
	}

	// The spec edit: one grid parameter, 8 -> 9.
	edited := base
	edited.Lengths = []float64{5, 9}

	// From-scratch reference of the edited spec through the plain
	// serial engine (separate cache so it cannot contaminate the
	// accounting).
	var ref bytes.Buffer
	refOpts := CampaignOptions{Seed: 5, Step: 4, Lengths: []float64{5, 9},
		CacheDir: filepath.Join(t.TempDir(), "refcache")}
	if _, err := StreamCampaign(refOpts, NewJSONLSink(&ref)); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	res, err := Update(edited, NewJSONLSink(&got))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != ref.String() {
		t.Fatal("update output differs from a from-scratch run of the edited spec")
	}
	if got.String() == first.String() {
		t.Fatal("the spec edit changed nothing — the fixture is degenerate")
	}

	// Class accounting: the all-5s configurations (one multiset per n,
	// two fa values at n=5) survive the edit; everything touching the
	// edited length re-runs; the enumeration size is unchanged.
	if res.Total != res.Unchanged+res.Invalidated+res.New {
		t.Fatalf("diff classes do not partition: %+v", res)
	}
	if res.Unchanged != 4 {
		t.Fatalf("unchanged = %d, want the 4 all-5s configurations", res.Unchanged)
	}
	if res.Reran != res.Invalidated+res.New || res.Reran != res.Total-4 {
		t.Fatalf("reran = %d of %d: %+v", res.Reran, res.Total, res)
	}
	if res.Records != res.Total {
		t.Fatalf("records = %d, want %d", res.Records, res.Total)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}

	// Cache-miss accounting: the update simulated EXACTLY the re-run
	// set — the shared cache grew by Reran entries and every
	// pre-existing entry survived untouched.
	after := cacheEntryKeys(t, cacheDir)
	if len(after) != len(before)+res.Reran {
		t.Fatalf("cache grew %d -> %d entries, want +%d", len(before), len(after), res.Reran)
	}
	afterSet := make(map[string]bool, len(after))
	for _, k := range after {
		afterSet[k] = true
	}
	for _, k := range before {
		if !afterSet[k] {
			t.Fatalf("update evicted cache entry %s", k)
		}
	}
	// And the final full-spec replay ran entirely warm.
	if res.ReplayMisses != 0 {
		t.Fatalf("replay missed the cache %d times, want 0", res.ReplayMisses)
	}

	// Updates chain: the spec manifest now describes the edited spec, so
	// an immediate second Update re-runs nothing and reproduces the
	// bytes.
	var again bytes.Buffer
	res2, err := Update(edited, NewJSONLSink(&again))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reran != 0 || res2.ReplayMisses != 0 {
		t.Fatalf("idempotent update re-ran %d with %d misses", res2.Reran, res2.ReplayMisses)
	}
	if again.String() != ref.String() {
		t.Fatal("idempotent update changed the bytes")
	}
	if len(cacheEntryKeys(t, cacheDir)) != len(after) {
		t.Fatal("idempotent update grew the cache")
	}
}

// TestUpdateRequiresCompletedCampaign: without a spec manifest there is
// nothing to diff against — Update must refuse, pointing at Coordinate.
func TestUpdateRequiresCompletedCampaign(t *testing.T) {
	opts := CoordinatorOptions{StateDir: t.TempDir(), Lengths: []float64{5, 8}}
	var buf bytes.Buffer
	_, err := Update(opts, NewJSONLSink(&buf))
	if err == nil || !strings.Contains(err.Error(), "no spec manifest") {
		t.Fatalf("want no-spec refusal, got %v", err)
	}

	// Resume/Follow are Update's to manage.
	opts.Resume = true
	if _, err := Update(opts, NewJSONLSink(&buf)); err == nil {
		t.Fatal("Update accepted Resume")
	}
}

// TestOldStateRerunKeepsCache: a state directory whose manifest is an
// older format version draws exactly one old-state finding, fixed by
// removing the manifest. Resume refuses the older manifest; after the
// fix a fresh Coordinate replays every configuration from STATE/cache
// and reproduces the original bytes.
func TestOldStateRerunKeepsCache(t *testing.T) {
	state := t.TempDir()
	opts := CoordinatorOptions{StateDir: state, Workers: 2, Shards: 3, Seed: 5, Step: 4, Lengths: []float64{5, 8}}
	var first bytes.Buffer
	if _, err := Coordinate(opts, NewJSONLSink(&first)); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(state, "cache")
	before := cacheEntryKeys(t, cacheDir)

	manPath := filepath.Join(state, "manifest.json")
	v1 := `{"version": 1, "params": "p", "shards": 3, "total": 3, "shard_state": [{"state": "done"}, {"state": "done"}, {"state": "done"}]}`
	if err := os.WriteFile(manPath, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := Doctor(DoctorOptions{StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	var old []Finding
	for _, f := range findings {
		if f.Code == "old-state" {
			old = append(old, f)
		}
	}
	if len(old) != 1 || old[0].Path != manPath || old[0].Fix != "rm "+manPath {
		t.Fatalf("want one old-state finding fixed by rm %s, got %+v", manPath, findings)
	}

	resume := opts
	resume.Resume = true
	if _, err := Coordinate(resume, NewJSONLSink(&bytes.Buffer{})); err == nil || !strings.Contains(err.Error(), "older state") {
		t.Fatalf("resume over an older manifest: want an older-state refusal, got %v", err)
	}

	if err := os.Remove(manPath); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := Coordinate(opts, NewJSONLSink(&again)); err != nil {
		t.Fatal(err)
	}
	if again.String() != first.String() {
		t.Fatal("rerun after removing the older manifest changed the bytes")
	}
	logs, err := filepath.Glob(filepath.Join(state, "shard-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := 0, 0
	for _, path := range logs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`(\d+) hits, (\d+) misses`).FindAllStringSubmatch(string(data), -1) {
			h, _ := strconv.Atoi(m[1])
			n, _ := strconv.Atoi(m[2])
			hits += h
			misses += n
		}
	}
	if hits == 0 || misses != 0 {
		t.Fatalf("rerun cache accounting: %d hits, %d misses; want every lookup a hit", hits, misses)
	}
	if after := cacheEntryKeys(t, cacheDir); len(after) != len(before) {
		t.Fatalf("rerun grew the cache %d -> %d entries", len(before), len(after))
	}
}
