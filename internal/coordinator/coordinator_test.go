package coordinator

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sensorfusion/internal/chaos"
	"sensorfusion/internal/experiments"
	"sensorfusion/internal/results"
)

// testRecord is the synthetic campaign's deterministic record for
// global index k.
func testRecord(k int) results.Record {
	return results.Record{
		Kind:   "test",
		Index:  k,
		Config: fmt.Sprintf("cfg-%03d", k),
		Digest: "0011223344556677",
		Seed:   42,
		Metrics: []results.Metric{
			{Key: "asc", Val: float64(k) * 1.5},
			{Key: "desc", Val: float64(k)*1.5 + 1},
		},
	}
}

// serialBytes is the reference output: every record in order through
// one JSONL sink — what an unsharded serial run would stream.
func serialBytes(t *testing.T, total int) string {
	t.Helper()
	var buf bytes.Buffer
	sink := results.NewJSONL(&buf)
	for k := 0; k < total; k++ {
		if err := sink.Write(testRecord(k)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// testWorker writes the task's assigned records in order, calling hook
// (when non-nil) before each record; hook errors abort the attempt.
func testWorker(total int, launches *atomic.Int64, hook func(task Task, k int) error) WorkerFunc {
	return func(ctx context.Context, task Task, out, logw io.Writer) error {
		if launches != nil {
			launches.Add(1)
		}
		sink := results.NewJSONL(out)
		for _, k := range task.Indices {
			if hook != nil {
				if err := hook(task, k); err != nil {
					return err
				}
			}
			if err := sink.Write(testRecord(k)); err != nil {
				return err
			}
		}
		return nil
	}
}

func baseOptions(t *testing.T, total, shards int) Options {
	t.Helper()
	return Options{
		StateDir:     t.TempDir(),
		Shards:       shards,
		Workers:      3,
		Total:        total,
		Params:       "test-params",
		PollInterval: 2 * time.Millisecond,
	}
}

// checkPartition asserts a partition covers [0, total) exactly once
// with strictly increasing shards.
func checkPartition(t *testing.T, partition [][]int, total int) {
	t.Helper()
	seen := make([]bool, total)
	n := 0
	for i, indices := range partition {
		last := -1
		for _, k := range indices {
			if k <= last {
				t.Fatalf("shard %d not strictly increasing: %v", i, indices)
			}
			last = k
			if k < 0 || k >= total || seen[k] {
				t.Fatalf("shard %d claims bad or duplicate index %d", i, k)
			}
			seen[k] = true
			n++
		}
	}
	if n != total {
		t.Fatalf("partition covers %d of %d indices", n, total)
	}
}

func TestPlanPartitionModular(t *testing.T) {
	for _, tc := range []struct{ total, m int }{
		{10, 3}, {3, 5}, {7, 1}, {1, 1}, {13, 20},
	} {
		p := planPartition(tc.total, tc.m, nil)
		checkPartition(t, p, tc.total)
		for i, indices := range p {
			for _, k := range indices {
				if k%tc.m != i {
					t.Fatalf("modular shard %d/%d owns index %d", i, tc.m, k)
				}
			}
		}
	}
}

// TestPlanPartitionBalancedShrinksStragglerTail is the cost-balancing
// acceptance test: on a skewed-cost campaign the balanced partition's
// simulated makespan (greedy workers pulling the heaviest unclaimed
// shard) beats static modular sharding by a wide margin, while both
// partitions cover exactly the same indices.
func TestPlanPartitionBalancedShrinksStragglerTail(t *testing.T) {
	const total, shards, workers = 64, 8, 4
	// Skewed costs: a few configurations dominate, and they cluster in
	// one residue class (the adversarial case for modular sharding).
	costs := make([]float64, total)
	for k := range costs {
		costs[k] = 1
		if k%shards == 3 {
			costs[k] = 100 // every expensive config lands in modular shard 3
		}
	}
	balanced := planPartition(total, shards, costs)
	static := planPartition(total, shards, nil)
	checkPartition(t, balanced, total)
	checkPartition(t, static, total)

	shardCost := func(p [][]int) []float64 { return partitionCost(p, costs) }
	// Simulate the dynamic queue: shards sorted heaviest-first, each
	// pulled by the first idle worker (the coordinator's dispatch
	// discipline, with time replaced by cost units).
	makespan := func(cost []float64) float64 {
		order := make([]int, len(cost))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })
		load := make([]float64, workers)
		for _, s := range order {
			min := 0
			for w := 1; w < workers; w++ {
				if load[w] < load[min] {
					min = w
				}
			}
			load[min] += cost[s]
		}
		max := 0.0
		for _, l := range load {
			if l > max {
				max = l
			}
		}
		return max
	}
	mBalanced := makespan(shardCost(balanced))
	mStatic := makespan(shardCost(static))
	// Total work is 856 units; a perfect 4-worker schedule is 214. The
	// modular partition puts all 800 expensive units in one shard
	// (makespan >= 800); balancing must land near the ideal.
	if mBalanced >= mStatic/2 {
		t.Fatalf("balanced makespan %.0f not clearly better than static %.0f", mBalanced, mStatic)
	}
	perfect := 0.0
	for _, c := range costs {
		perfect += c
	}
	perfect /= workers
	if mBalanced > 1.3*perfect {
		t.Fatalf("balanced makespan %.0f too far from the %.0f ideal", mBalanced, perfect)
	}
}

// TestLPTPartition pins planPartition's LPT packing on small inputs.
func TestLPTPartition(t *testing.T) {
	// Equal costs deal round-robin in index order; one dominant index
	// claims a shard to itself. Ties break toward the lower index and
	// the lower shard, so the plan is a pure function of its inputs.
	for _, tc := range []struct {
		name  string
		costs []float64
		want  [][]int
	}{
		{"equal-costs", []float64{1, 1, 1, 1, 1, 1}, [][]int{{0, 2, 4}, {1, 3, 5}}},
		{"dominant-index", []float64{1, 1, 1, 1, 10}, [][]int{{4}, {0, 1, 2, 3}}},
	} {
		if got := planPartition(len(tc.costs), 2, tc.costs); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCoordinateCleanRunMatchesSerial(t *testing.T) {
	for _, follow := range []bool{false, true} {
		t.Run(fmt.Sprintf("follow=%t", follow), func(t *testing.T) {
			const total, shards = 17, 5
			opts := baseOptions(t, total, shards)
			opts.Follow = follow
			opts.Run = testWorker(total, nil, nil)
			var buf bytes.Buffer
			opts.Sink = results.NewJSONL(&buf)
			var checked atomic.Int64
			opts.CheckRecord = func(rec results.Record) (string, bool) {
				// Every merged record flows through the check, in order.
				if int(checked.Add(1))-1 != rec.Index {
					t.Errorf("check saw record %d out of order", rec.Index)
				}
				return fmt.Sprintf("synthetic-violation-%d", rec.Index), rec.Index == 3
			}
			res, err := Coordinate(opts)
			if err != nil {
				t.Fatal(err)
			}
			if buf.String() != serialBytes(t, total) {
				t.Fatalf("merged output differs from serial reference:\n%s", buf.String())
			}
			if res.Records != total || res.SkippedShards != 0 || res.Attempts != shards {
				t.Fatalf("unexpected result: %+v", res)
			}
			if int(checked.Load()) != total {
				t.Fatalf("check saw %d records, want %d", checked.Load(), total)
			}
			if len(res.Violations) != 1 || res.Violations[0] != "synthetic-violation-3" {
				t.Fatalf("check output not propagated: %+v", res.Violations)
			}
		})
	}
}

// TestCoordinateMoreShardsThanRecords: empty shards validate and merge.
func TestCoordinateMoreShardsThanRecords(t *testing.T) {
	const total, shards = 3, 5
	opts := baseOptions(t, total, shards)
	opts.Run = testWorker(total, nil, nil)
	var buf bytes.Buffer
	opts.Sink = results.NewJSONL(&buf)
	if _, err := Coordinate(opts); err != nil {
		t.Fatal(err)
	}
	if buf.String() != serialBytes(t, total) {
		t.Fatalf("merged output differs from serial reference")
	}
}

// TestCoordinateRetriesFailedShard: a shard that fails its first
// attempt (after writing a partial, torn file) is re-queued and the
// retry repairs it.
func TestCoordinateRetriesFailedShard(t *testing.T) {
	const total, shards = 12, 4
	opts := baseOptions(t, total, shards)
	var failed atomic.Bool
	opts.Run = func(ctx context.Context, task Task, out, logw io.Writer) error {
		if task.Index == 2 && failed.CompareAndSwap(false, true) {
			// Partial record then a torn line: both must be discarded.
			io.WriteString(out, `{"kind":"test","index":2,`)
			return fmt.Errorf("synthetic crash")
		}
		return testWorker(total, nil, nil)(ctx, task, out, logw)
	}
	var buf bytes.Buffer
	opts.Sink = results.NewJSONL(&buf)
	res, err := Coordinate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != serialBytes(t, total) {
		t.Fatal("merged output differs from serial reference after retry")
	}
	if res.Attempts != shards+1 {
		t.Fatalf("want %d attempts (one retry), got %d", shards+1, res.Attempts)
	}
}

// TestCoordinateFailsAfterMaxAttempts: a permanently broken shard
// exhausts its budget and surfaces its last error.
func TestCoordinateFailsAfterMaxAttempts(t *testing.T) {
	const total, shards = 8, 2
	opts := baseOptions(t, total, shards)
	opts.MaxAttempts = 2
	var launches atomic.Int64
	opts.Run = func(ctx context.Context, task Task, out, logw io.Writer) error {
		if task.Index == 1 {
			launches.Add(1)
			return fmt.Errorf("permanently broken")
		}
		return testWorker(total, nil, nil)(ctx, task, out, logw)
	}
	opts.Sink = results.NewJSONL(io.Discard)
	_, err := Coordinate(opts)
	if err == nil || !strings.Contains(err.Error(), "permanently broken") {
		t.Fatalf("want the shard's error, got %v", err)
	}
	if n := launches.Load(); n != 2 {
		t.Fatalf("broken shard launched %d times, want MaxAttempts=2", n)
	}
}

// TestCoordinateStragglerKilledAndReassigned: a first attempt that
// hangs past the deadline is killed through its context and the retry
// completes the shard.
func TestCoordinateStragglerKilledAndReassigned(t *testing.T) {
	const total, shards = 9, 3
	opts := baseOptions(t, total, shards)
	opts.ShardTimeout = 30 * time.Millisecond
	var hung atomic.Bool
	opts.Run = func(ctx context.Context, task Task, out, logw io.Writer) error {
		if task.Index == 1 && hung.CompareAndSwap(false, true) {
			<-ctx.Done() // straggle until the deadline kills us
			return ctx.Err()
		}
		return testWorker(total, nil, nil)(ctx, task, out, logw)
	}
	var buf bytes.Buffer
	opts.Sink = results.NewJSONL(&buf)
	res, err := Coordinate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != serialBytes(t, total) {
		t.Fatal("merged output differs from serial reference after straggler retry")
	}
	if res.Attempts != shards+1 {
		t.Fatalf("want %d attempts, got %d", shards+1, res.Attempts)
	}
}

// TestCoordinateResumeSkipsCompletedShards is the crash-resume
// contract: a run that dies mid-campaign resumes from the manifest,
// re-runs only what is missing, and produces output byte-identical to
// a clean run.
func TestCoordinateResumeSkipsCompletedShards(t *testing.T) {
	const total, shards = 20, 4
	opts := baseOptions(t, total, shards)
	opts.Workers = 1 // deterministic shard order for the failure leg
	opts.MaxAttempts = 1
	var firstLaunches atomic.Int64
	opts.Run = func(ctx context.Context, task Task, out, logw io.Writer) error {
		if task.Index == 2 {
			return fmt.Errorf("die here")
		}
		return testWorker(total, &firstLaunches, nil)(ctx, task, out, logw)
	}
	opts.Sink = results.NewJSONL(io.Discard)
	if _, err := Coordinate(opts); err == nil {
		t.Fatal("first leg should have failed")
	}

	// Resume with a healthy worker: only the shards that never
	// completed may launch.
	var resumeLaunched []int
	resume := opts
	resume.Resume = true
	resume.MaxAttempts = 3
	var resumeCount atomic.Int64
	resume.Run = func(ctx context.Context, task Task, out, logw io.Writer) error {
		resumeCount.Add(1)
		resumeLaunched = append(resumeLaunched, task.Index)
		return testWorker(total, nil, nil)(ctx, task, out, logw)
	}
	var buf bytes.Buffer
	resume.Sink = results.NewJSONL(&buf)
	res, err := Coordinate(resume)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != serialBytes(t, total) {
		t.Fatal("resumed output differs from serial reference")
	}
	completedFirst := int(firstLaunches.Load())
	if res.SkippedShards != completedFirst {
		t.Fatalf("resume skipped %d shards, but first leg completed %d", res.SkippedShards, completedFirst)
	}
	if int(resumeCount.Load()) != shards-completedFirst {
		t.Fatalf("resume launched %d workers for %d missing shards (launched shards %v)",
			resumeCount.Load(), shards-completedFirst, resumeLaunched)
	}
	for _, i := range resumeLaunched {
		if i < 2 {
			t.Fatalf("resume re-ran completed shard %d", i)
		}
	}
}

// TestCoordinateResumeRepairsTruncatedShard: tampering with a completed
// shard file (the crash mode of a worker killed mid-write) demotes just
// that shard; resume repairs it and the final bytes are unchanged.
func TestCoordinateResumeRepairsTruncatedShard(t *testing.T) {
	const total, shards = 15, 3
	opts := baseOptions(t, total, shards)
	opts.Run = testWorker(total, nil, nil)
	opts.Sink = results.NewJSONL(io.Discard)
	if _, err := Coordinate(opts); err != nil {
		t.Fatal(err)
	}

	// Truncate shard 1 mid-line.
	path := shardFile(opts.StateDir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	resume := opts
	resume.Resume = true
	var launched []int
	resume.Run = func(ctx context.Context, task Task, out, logw io.Writer) error {
		launched = append(launched, task.Index)
		return testWorker(total, nil, nil)(ctx, task, out, logw)
	}
	var buf bytes.Buffer
	resume.Sink = results.NewJSONL(&buf)
	res, err := Coordinate(resume)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != serialBytes(t, total) {
		t.Fatal("resumed output differs from serial reference")
	}
	if len(launched) != 1 || launched[0] != 1 {
		t.Fatalf("resume should re-run only shard 1, ran %v", launched)
	}
	if res.SkippedShards != shards-1 {
		t.Fatalf("resume skipped %d shards, want %d", res.SkippedShards, shards-1)
	}
}

// TestCoordinateRefusesUnrelatedState: an existing manifest requires
// Resume, and Resume requires matching parameters.
func TestCoordinateRefusesUnrelatedState(t *testing.T) {
	const total, shards = 6, 2
	opts := baseOptions(t, total, shards)
	opts.Run = testWorker(total, nil, nil)
	opts.Sink = results.NewJSONL(io.Discard)
	if _, err := Coordinate(opts); err != nil {
		t.Fatal(err)
	}
	// Same state dir, no Resume: refused.
	opts2 := opts
	var buf bytes.Buffer
	opts2.Sink = results.NewJSONL(&buf)
	if _, err := Coordinate(opts2); err == nil || !strings.Contains(err.Error(), "Resume") {
		t.Fatalf("re-run without Resume: want refusal, got %v", err)
	}
	// Resume with different params: refused.
	opts3 := opts
	opts3.Resume = true
	opts3.Params = "other-params"
	opts3.Sink = results.NewJSONL(&buf)
	if _, err := Coordinate(opts3); err == nil || !strings.Contains(err.Error(), "params") {
		t.Fatalf("resume with foreign params: want refusal, got %v", err)
	}
}

// TestCoordinateResumeAfterSilentCrash simulates a SIGKILLed
// coordinator: valid shard files on disk but a manifest still claiming
// the shards are running. Revalidation must promote them without
// re-launching anything.
func TestCoordinateResumeAfterSilentCrash(t *testing.T) {
	const total, shards = 10, 2
	opts := baseOptions(t, total, shards)
	opts.Run = testWorker(total, nil, nil)
	opts.Sink = results.NewJSONL(io.Discard)
	if _, err := Coordinate(opts); err != nil {
		t.Fatal(err)
	}
	// Rewrite the manifest as if the coordinator died mid-run, and
	// leave a stale lock behind as the kill would.
	man, err := loadManifest(opts.StateDir)
	if err != nil || man == nil {
		t.Fatalf("manifest: %v", err)
	}
	for i := range man.Shard {
		man.Shard[i].State = shardRunning
		man.Shard[i].Records = 0
	}
	if err := man.save(chaos.OS, opts.StateDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(opts.StateDir, lockName), []byte("999999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	resume := opts
	resume.Resume = true
	resume.Run = func(ctx context.Context, task Task, out, logw io.Writer) error {
		t.Errorf("shard %d re-launched despite valid file on disk", task.Index)
		return testWorker(total, nil, nil)(ctx, task, out, logw)
	}
	var buf bytes.Buffer
	resume.Sink = results.NewJSONL(&buf)
	res, err := Coordinate(resume)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != serialBytes(t, total) {
		t.Fatal("resumed output differs from serial reference")
	}
	if res.Attempts != 0 || res.SkippedShards != shards {
		t.Fatalf("silent-crash resume should launch nothing: %+v", res)
	}
}

// TestCoordinateLockRefusesLiveOwner: a state dir locked by a live
// process is refused; this test's own pid plays the live coordinator.
func TestCoordinateLockRefusesLiveOwner(t *testing.T) {
	const total, shards = 4, 2
	opts := baseOptions(t, total, shards)
	opts.Run = testWorker(total, nil, nil)
	opts.Sink = results.NewJSONL(io.Discard)
	lock := filepath.Join(opts.StateDir, lockName)
	if err := os.WriteFile(lock, []byte(fmt.Sprintf("%d\n", os.Getpid())), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Coordinate(opts); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("want lock refusal, got %v", err)
	}
}

func TestValidateShardFile(t *testing.T) {
	dir := t.TempDir()
	write := func(recs ...results.Record) string {
		t.Helper()
		var buf bytes.Buffer
		sink := results.NewJSONL(&buf)
		for _, r := range recs {
			if err := sink.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		p := filepath.Join(dir, "shard.jsonl")
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// A shard owning indices 1 and 4.
	p := write(testRecord(1), testRecord(4))
	if n, err := validateShardFile(chaos.OS, p, []int{1, 4}); err != nil || n != 2 {
		t.Fatalf("valid shard rejected: n=%d err=%v", n, err)
	}
	// Missing tail.
	p = write(testRecord(1))
	if _, err := validateShardFile(chaos.OS, p, []int{1, 4}); err == nil {
		t.Fatal("short shard accepted")
	}
	// Foreign index.
	p = write(testRecord(1), testRecord(3))
	if _, err := validateShardFile(chaos.OS, p, []int{1, 4}); err == nil {
		t.Fatal("foreign indices accepted")
	}
	// Extra record beyond the expected set.
	p = write(testRecord(1), testRecord(4), testRecord(5))
	if _, err := validateShardFile(chaos.OS, p, []int{1, 4}); err == nil {
		t.Fatal("oversized shard accepted")
	}
	// Torn tail line.
	p = write(testRecord(1), testRecord(4))
	data, _ := os.ReadFile(p)
	os.WriteFile(p, data[:len(data)-9], 0o644)
	if _, err := validateShardFile(chaos.OS, p, []int{1, 4}); err == nil {
		t.Fatal("torn shard accepted")
	}
}

// TestFollowerDeduplicatesAndDetectsDivergence covers the follow-mode
// release buffer directly.
func TestFollowerDeduplicatesAndDetectsDivergence(t *testing.T) {
	var buf bytes.Buffer
	f := newFollower(results.NewJSONL(&buf), 5)
	for _, k := range []int{1, 0, 0, 3, 1, 2, 4, 4} { // duplicates interleaved
		if err := f.add(testRecord(k)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := f.finish()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || buf.String() != serialBytes(t, 5) {
		t.Fatalf("follower output wrong:\n%s", buf.String())
	}
	// A re-read with different content is a determinism violation.
	bad := testRecord(2)
	bad.Metrics[0].Val++
	if err := f.add(bad); err == nil || !strings.Contains(err.Error(), "deterministic") {
		t.Fatalf("divergent duplicate accepted: %v", err)
	}
	// Out-of-range indices are rejected.
	if err := f.add(testRecord(7)); err == nil {
		t.Fatal("out-of-range record accepted")
	}
}

// TestCoordinateAcceptsValidOutputDespiteWorkerError: a worker that
// writes its complete shard but exits with an error (as `repro
// campaign` does when its per-shard claim check fires) must not be
// retried — validation of the output is authoritative, and the merged
// Check re-reports whatever the worker was complaining about.
func TestCoordinateAcceptsValidOutputDespiteWorkerError(t *testing.T) {
	const total, shards = 10, 2
	opts := baseOptions(t, total, shards)
	opts.MaxAttempts = 1 // any retry would fail the run
	var launches atomic.Int64
	opts.Run = func(ctx context.Context, task Task, out, logw io.Writer) error {
		if err := testWorker(total, &launches, nil)(ctx, task, out, logw); err != nil {
			return err
		}
		return fmt.Errorf("per-shard claim violation (records are complete)")
	}
	var buf bytes.Buffer
	opts.Sink = results.NewJSONL(&buf)
	if _, err := Coordinate(opts); err != nil {
		t.Fatal(err)
	}
	if buf.String() != serialBytes(t, total) {
		t.Fatal("merged output differs from serial reference")
	}
	if n := launches.Load(); n != shards {
		t.Fatalf("launched %d workers, want %d (no retries for valid output)", n, shards)
	}
}

// TestCoordinateCostBalancedBoundedMerge runs a skewed-cost campaign
// through cost-balanced shards and a small merge window, asserting the
// full acceptance chain: bytes identical to serial, per-shard cost and
// index sets recorded in the manifest, and a resume that keeps the
// balanced partition while launching nothing.
func TestCoordinateCostBalancedBoundedMerge(t *testing.T) {
	const total, shards = 40, 6
	costs := make([]float64, total)
	for k := range costs {
		costs[k] = 1
		if k < 4 {
			costs[k] = 50 // the first few configurations dominate
		}
	}
	opts := baseOptions(t, total, shards)
	opts.Costs = costs
	opts.MergeWindow = 5
	opts.Run = testWorker(total, nil, nil)
	var buf bytes.Buffer
	opts.Sink = results.NewJSONL(&buf)
	res, err := Coordinate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != serialBytes(t, total) {
		t.Fatal("balanced+bounded run differs from serial reference")
	}
	if res.Records != total || res.Attempts != shards {
		t.Fatalf("unexpected result: %+v", res)
	}

	// The manifest must carry the balanced partition: every shard has an
	// explicit index set and a cost, no shard holds two expensive
	// configurations, and costs sum to the campaign total.
	man, err := loadManifest(opts.StateDir)
	if err != nil || man == nil {
		t.Fatalf("manifest: %v", err)
	}
	sumCost := 0.0
	for i, st := range man.Shard {
		if st.Indices == "" {
			t.Fatalf("shard %d has no index set in the manifest", i)
		}
		expensive := 0
		indices, err := experiments.ParseIndexSet(st.Indices)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range indices {
			if k < 4 {
				expensive++
			}
		}
		if expensive > 1 {
			t.Fatalf("shard %d packs %d expensive configurations — not balanced (set %s)", i, expensive, st.Indices)
		}
		sumCost += st.Cost
	}
	wantCost := 0.0
	for _, c := range costs {
		wantCost += c
	}
	if sumCost != wantCost {
		t.Fatalf("manifest shard costs sum to %g, want %g", sumCost, wantCost)
	}

	// Resume (with no Costs passed): the manifest partition is reused,
	// nothing relaunches, bytes unchanged.
	resume := opts
	resume.Costs = nil
	resume.Resume = true
	resume.Run = func(ctx context.Context, task Task, out, logw io.Writer) error {
		t.Errorf("shard %d relaunched on resume of a complete run", task.Index)
		return nil
	}
	var buf2 bytes.Buffer
	resume.Sink = results.NewJSONL(&buf2)
	res2, err := Coordinate(resume)
	if err != nil {
		t.Fatal(err)
	}
	if buf2.String() != serialBytes(t, total) || res2.SkippedShards != shards {
		t.Fatalf("resume of balanced run broke: %+v", res2)
	}
}

// v1Manifest is a version-1 manifest as the pre-cost coordinator wrote
// it: no per-shard index sets, the shards implicitly the modular
// residue classes, one shard unfinished.
const v1Manifest = `{
  "version": 1,
  "params": "test-params",
  "shards": 3,
  "total": 8,
  "shard_state": [
    {"state": "done", "attempts": 1, "records": 3},
    {"state": "done", "attempts": 1, "records": 3},
    {"state": "running", "attempts": 1, "records": 0}
  ]
}
`

// TestCoordinateResumeFromV1Manifest: a version-1 manifest is older
// state. Resume refuses it with errOldState, naming the manifest to
// remove, and launches nothing.
func TestCoordinateResumeFromV1Manifest(t *testing.T) {
	const total, shards = 8, 3
	opts := baseOptions(t, total, shards)
	if err := os.WriteFile(manifestPath(opts.StateDir), []byte(v1Manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	opts.Run = func(ctx context.Context, task Task, out, logw io.Writer) error {
		t.Errorf("shard %d launched from older state", task.Index)
		return nil
	}
	opts.Sink = results.NewJSONL(io.Discard)
	_, err := Coordinate(opts)
	if !errors.Is(err, errOldState) || !strings.Contains(err.Error(), "remove "+manifestPath(opts.StateDir)) {
		t.Fatalf("want an older-state refusal naming the manifest, got %v", err)
	}
}

// TestReadStatus: the -watch view reads progress without the lock —
// even while a (simulated) live coordinator holds it — and reports the
// calibrated remaining-work estimate.
func TestReadStatus(t *testing.T) {
	const total, shards = 12, 4
	opts := baseOptions(t, total, shards)
	costs := make([]float64, total)
	for k := range costs {
		costs[k] = 2
	}
	opts.Costs = costs
	opts.Run = testWorker(total, nil, nil)
	opts.Sink = results.NewJSONL(io.Discard)
	if _, err := Coordinate(opts); err != nil {
		t.Fatal(err)
	}

	// A live lock must not bother the reader.
	if err := os.WriteFile(filepath.Join(opts.StateDir, lockName),
		[]byte(fmt.Sprintf("%d\n", os.Getpid())), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := ReadStatus(opts.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.DoneShards != shards || st.DoneRecords != total || st.Pending != 0 || st.Running != 0 {
		t.Fatalf("status of a complete run: %+v", st)
	}
	if st.Shards != shards || st.Total != total || len(st.Shard) != shards {
		t.Fatalf("status header wrong: %+v", st)
	}
	for _, sh := range st.Shard {
		if sh.State != "done" || sh.Records != sh.Expected || sh.Cost <= 0 {
			t.Fatalf("shard status wrong: %+v", sh)
		}
	}

	// Demote one shard to pending in the manifest: the estimate must
	// appear once timed done-shards exist. (Elapsed may round to 0ms on
	// a fast machine, so force plausible timings.)
	man, err := loadManifest(opts.StateDir)
	if err != nil || man == nil {
		t.Fatalf("manifest: %v", err)
	}
	for i := range man.Shard {
		man.Shard[i].ElapsedMS = 100
	}
	man.Shard[0].State = shardPending
	if err := man.save(chaos.OS, opts.StateDir); err != nil {
		t.Fatal(err)
	}
	st, err = ReadStatus(opts.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != 1 || st.DoneShards != shards-1 {
		t.Fatalf("demoted status: %+v", st)
	}
	if st.EstimatedRemaining <= 0 {
		t.Fatal("no remaining-work estimate despite timed shards")
	}

	// A state dir without a manifest is a clean, typed error.
	if _, err := ReadStatus(t.TempDir()); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("missing manifest: %v", err)
	}
}

// TestShardFilesAreGzipAtTheSource: a fresh coordinated run publishes
// every shard as a complete gzip stream (the ROADMAP's "compress shard
// streams on the way to disk" item), the merge reads them transparently
// and stays byte-identical to serial, and follow mode tails the
// compressed files while they grow.
func TestShardFilesAreGzipAtTheSource(t *testing.T) {
	for _, follow := range []bool{false, true} {
		const total, shards = 12, 3
		opts := baseOptions(t, total, shards)
		opts.Follow = follow
		opts.Run = testWorker(total, nil, nil)
		var buf bytes.Buffer
		opts.Sink = results.NewJSONL(&buf)
		if _, err := Coordinate(opts); err != nil {
			t.Fatalf("follow=%v: %v", follow, err)
		}
		if buf.String() != serialBytes(t, total) {
			t.Fatalf("follow=%v: merged bytes differ from serial", follow)
		}
		for i := 0; i < shards; i++ {
			path := shardFile(opts.StateDir, i)
			if !strings.HasSuffix(path, ".jsonl.gz") {
				t.Fatalf("canonical shard name %q is not compressed", path)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("follow=%v: shard %d: %v", follow, i, err)
			}
			if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
				t.Fatalf("follow=%v: shard %d does not start with the gzip magic", follow, i)
			}
			if _, err := validateShardFile(chaos.OS, path, modularIndices(i, shards, total)); err != nil {
				t.Fatalf("follow=%v: shard %d invalid: %v", follow, i, err)
			}
		}
	}
}

func modularIndices(i, shards, total int) []int {
	var out []int
	for k := i; k < total; k += shards {
		out = append(out, k)
	}
	return out
}
