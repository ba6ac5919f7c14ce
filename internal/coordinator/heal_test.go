package coordinator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bytes"

	"sensorfusion/internal/chaos"
	"sensorfusion/internal/experiments"
	"sensorfusion/internal/results"
)

func TestClassify(t *testing.T) {
	deadline := fmt.Errorf("attempt reaped: %w", context.DeadlineExceeded)
	for _, tc := range []struct {
		name    string
		err     error
		prev    string
		attempt int
		want    FailClass
	}{
		{"first failure is transient", errors.New("boom"), "", 1, FailTransient},
		{"deadline is a straggler", deadline, "", 1, FailStraggler},
		{"deadline stays straggler even when repeated", deadline, deadline.Error(), 3, FailStraggler},
		{"identical consecutive failure is poison", errors.New("boom"), "boom", 2, FailPermanent},
		{"different failure stays transient", errors.New("bang"), "boom", 2, FailTransient},
		{"no previous text cannot be poison", errors.New("boom"), "", 5, FailTransient},
		{"attempt one cannot be poison", errors.New("boom"), "boom", 1, FailTransient},
	} {
		if got := classify(tc.err, tc.prev, tc.attempt); got != tc.want {
			t.Errorf("%s: classify = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestRetryDelay(t *testing.T) {
	const base, max = 100 * time.Millisecond, time.Second
	// Deterministic: the same (seed, shard, attempt) replays the same
	// delay, and every delay lands in [d/2, d] with d doubling per
	// attempt up to the cap.
	want := []time.Duration{100, 200, 400, 800, 1000, 1000}
	for attempt := 1; attempt <= len(want); attempt++ {
		d := want[attempt-1] * time.Millisecond
		got := retryDelay(base, max, 42, 3, attempt)
		if got != retryDelay(base, max, 42, 3, attempt) {
			t.Fatalf("attempt %d: delay not deterministic", attempt)
		}
		if got < d/2 || got > d {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, got, d/2, d)
		}
	}
	// Jitter de-synchronizes shards that fail together.
	distinct := map[time.Duration]bool{}
	for shard := 0; shard < 32; shard++ {
		distinct[retryDelay(base, max, 42, shard, 1)] = true
	}
	if len(distinct) < 2 {
		t.Fatal("32 shards drew identical jitter — retries would stampede")
	}
	// Guards: disabled backoff and bad attempts yield zero; a cap below
	// base means the cap is the base.
	if d := retryDelay(0, max, 1, 1, 1); d != 0 {
		t.Fatalf("base 0: got %v, want 0", d)
	}
	if d := retryDelay(base, max, 1, 1, 0); d != 0 {
		t.Fatalf("attempt 0: got %v, want 0", d)
	}
	if d := retryDelay(base, 10*time.Millisecond, 1, 1, 4); d < base/2 || d > base {
		t.Fatalf("cap below base: got %v, want within [%v, %v]", d, base/2, base)
	}
}

func TestLPTPartition(t *testing.T) {
	// Equal costs round-robin by index order.
	parts := lptPartition([]int{0, 1, 2, 3, 4, 5}, func(int) float64 { return 1 }, 2)
	if want := [][]int{{0, 2, 4}, {1, 3, 5}}; !partitionEqual(parts, want) {
		t.Fatalf("equal costs: got %v, want %v", parts, want)
	}
	// One dominant index claims a part to itself.
	cost := func(k int) float64 {
		if k == 10 {
			return 10
		}
		return 1
	}
	parts = lptPartition([]int{0, 1, 2, 3, 10}, cost, 2)
	if want := [][]int{{10}, {0, 1, 2, 3}}; !partitionEqual(parts, want) {
		t.Fatalf("dominant index: got %v, want %v", parts, want)
	}
}

func partitionEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalInts(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestCoordinateSpeculation: one shard's primary attempt hangs until
// canceled; the worker that goes idle speculatively duplicates it into
// a side file, the duplicate validates and publishes, and the merged
// bytes are still exactly the serial reference.
func TestCoordinateSpeculation(t *testing.T) {
	const total, shards = 8, 2
	opts := baseOptions(t, total, shards)
	opts.Workers = 2
	opts.Speculate = true
	opts.RetryBase = time.Millisecond
	opts.ShardTimeout = 2 * time.Second // backstop so a broken speculation path fails, not hangs
	opts.Run = func(ctx context.Context, task Task, out, logw io.Writer) error {
		if task.Index == 1 && task.Attempt == 1 {
			<-ctx.Done()
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
		t.Fatal("speculative completion changed the merged bytes")
	}
	if res.Speculated != 1 {
		t.Fatalf("Speculated = %d, want 1 (the stuck shard was completed by retry, not speculation)", res.Speculated)
	}
	if _, err := os.Stat(specShardFile(opts.StateDir, 1)); !os.IsNotExist(err) {
		t.Fatalf("speculative side file should be renamed away, stat err = %v", err)
	}
}

// publishRaceFS holds the primary attempt of shard 0 between its
// legacy-name Remove and its truncating open until a speculative
// duplicate has renamed its side file over the canonical shard name —
// the interleaving in which a late primary used to truncate a published
// shard.
type publishRaceFS struct {
	chaos.FS
	legacy, canonical string
	blocked           atomic.Bool
	published         chan struct{}
	once              sync.Once
}

func (fs *publishRaceFS) Remove(name string) error {
	if name == fs.legacy && fs.blocked.CompareAndSwap(false, true) {
		select {
		case <-fs.published:
		case <-time.After(5 * time.Second): // backstop: fail, do not hang
		}
	}
	return fs.FS.Remove(name)
}

func (fs *publishRaceFS) Rename(oldpath, newpath string) error {
	err := fs.FS.Rename(oldpath, newpath)
	if err == nil && newpath == fs.canonical {
		fs.once.Do(func() { close(fs.published) })
	}
	return err
}

// TestCoordinateLatePrimaryKeepsPublishedShard: shard 0's primary stalls
// before opening its shard file, shard 1 completes, the idle worker
// speculates on shard 0 and publishes it. The released primary must back
// off instead of truncating the published file, so the merge still sees
// every record. A canceled attempt writes nothing, like a killed worker
// process.
func TestCoordinateLatePrimaryKeepsPublishedShard(t *testing.T) {
	const total, shards = 8, 2
	opts := baseOptions(t, total, shards)
	opts.Workers = 2
	opts.Speculate = true
	fsys := &publishRaceFS{
		FS:        chaos.OS,
		legacy:    legacyShardFile(opts.StateDir, 0),
		canonical: shardFile(opts.StateDir, 0),
		published: make(chan struct{}),
	}
	opts.FS = fsys
	opts.Run = func(ctx context.Context, task Task, out, logw io.Writer) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return testWorker(total, nil, nil)(ctx, task, out, logw)
	}
	var buf bytes.Buffer
	opts.Sink = results.NewJSONL(&buf)
	res, err := Coordinate(opts)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-fsys.published:
	default:
		t.Fatal("the speculative attempt never published shard 0; the interleaving was not forced")
	}
	if res.Speculated != 1 {
		t.Fatalf("Speculated = %d, want 1", res.Speculated)
	}
	if buf.String() != serialBytes(t, total) {
		t.Fatal("a late primary attempt clobbered the published shard")
	}
}

// TestCoordinateReCut: a handcrafted lopsided plan (shard costs 1, 9,
// 10) is re-balanced mid-run — after the heaviest shard completes, the
// two pending shards' union is re-packed by measured cost into two
// even halves — without disturbing the merged output.
func TestCoordinateReCut(t *testing.T) {
	const total, shards = 12, 3
	opts := baseOptions(t, total, shards)
	costs := make([]float64, total)
	for k := range costs {
		costs[k] = 1
	}
	costs[10], costs[11] = 5, 5
	opts.Costs = costs

	partition := [][]int{{0}, {1, 2, 3, 4, 5, 6, 7, 8, 9}, {10, 11}}
	man := newManifest(opts, partition)
	man.init()
	if err := man.save(chaos.OS, opts.StateDir); err != nil {
		t.Fatal(err)
	}

	opts.Resume = true
	opts.ReCut = true
	opts.Workers = 1 // deterministic dispatch order: heaviest shard first
	opts.Run = testWorker(total, nil, nil)
	var buf bytes.Buffer
	opts.Sink = results.NewJSONL(&buf)
	res, err := Coordinate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != serialBytes(t, total) {
		t.Fatal("re-cut changed the merged bytes")
	}
	// Shard 2 (cost 10) ran first; the pending pair {1, 9} had max 9 >
	// 1.5 × mean 5, so exactly one re-cut fired.
	if res.ReCuts != 1 {
		t.Fatalf("ReCuts = %d, want 1", res.ReCuts)
	}
}

// TestCoordinatePartialAndResume: a poisoned shard fails terminally in
// Partial mode, the other shards still merge, partial.json accounts
// for the gap (and doctor points at -resume), and a later clean resume
// completes the campaign byte-for-byte and retires the report.
func TestCoordinatePartialAndResume(t *testing.T) {
	const total, shards = 12, 3
	opts := baseOptions(t, total, shards)
	opts.Partial = true
	opts.MaxAttempts = 2
	opts.RetryBase = time.Millisecond
	opts.Run = testWorker(total, nil, func(task Task, k int) error {
		if task.Index == 1 {
			return errors.New("synthetic poison")
		}
		return nil
	})
	var buf bytes.Buffer
	opts.Sink = results.NewJSONL(&buf)
	res, err := Coordinate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("run should have degraded to a partial result")
	}
	if res.Records != total-4 {
		t.Fatalf("Records = %d, want %d", res.Records, total-4)
	}
	if len(res.Failed) != 1 || res.Failed[0].Shard != 1 {
		t.Fatalf("Failed = %+v, want exactly shard 1", res.Failed)
	}
	f := res.Failed[0]
	if f.Class != string(FailPermanent) {
		t.Fatalf("identical consecutive failures classified %q, want %q", f.Class, FailPermanent)
	}
	if f.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2 (poison detected without burning more)", f.Attempts)
	}
	if !strings.Contains(f.Error, "synthetic poison") {
		t.Fatalf("Failed error %q lost the worker's text", f.Error)
	}
	missing := map[int]bool{1: true, 4: true, 7: true, 10: true}
	if got, want := buf.String(), subsetBytes(t, total, func(k int) bool { return !missing[k] }); got != want {
		t.Fatal("partial merge bytes differ from the done-shard subset")
	}

	rep, err := LoadPartial(opts.StateDir)
	if err != nil || rep == nil {
		t.Fatalf("LoadPartial = %+v, %v", rep, err)
	}
	if rep.Params != opts.Params || rep.Total != total || rep.Merged != total-4 {
		t.Fatalf("report header = %+v", rep)
	}
	if want := experiments.FormatIndexSet([]int{1, 4, 7, 10}); rep.Missing != want {
		t.Fatalf("Missing = %q, want %q", rep.Missing, want)
	}
	if len(rep.Failed) != 1 || rep.Failed[0].Shard != 1 || rep.Failed[0].Class != string(FailPermanent) {
		t.Fatalf("report Failed = %+v", rep.Failed)
	}

	// Doctor recognizes the report and prescribes resume.
	findings, err := DoctorState(opts.StateDir, "repro")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fd := range findings {
		if fd.Code == "partial-result" {
			found = true
			if !strings.Contains(fd.Fix, "coordinate -resume") {
				t.Fatalf("partial-result fix %q does not prescribe -resume", fd.Fix)
			}
		}
	}
	if !found {
		t.Fatalf("doctor missed the partial result: %+v", findings)
	}

	// A clean resume re-runs the failed shard and completes the campaign.
	resume := opts
	resume.Resume = true
	resume.Run = testWorker(total, nil, nil)
	var buf2 bytes.Buffer
	resume.Sink = results.NewJSONL(&buf2)
	res2, err := Coordinate(resume)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Partial || len(res2.Failed) != 0 {
		t.Fatalf("resume still partial: %+v", res2)
	}
	if buf2.String() != serialBytes(t, total) {
		t.Fatal("resumed merge differs from the serial reference")
	}
	if res2.SkippedShards != 2 {
		t.Fatalf("SkippedShards = %d, want 2 (done shards replayed from disk)", res2.SkippedShards)
	}
	if _, err := os.Stat(PartialPath(opts.StateDir)); !os.IsNotExist(err) {
		t.Fatalf("partial.json should be retired by a full run, stat err = %v", err)
	}
}

// subsetBytes renders the serial reference restricted to the indices
// keep admits — what a partial merge over the done shards must emit.
func subsetBytes(t *testing.T, total int, keep func(k int) bool) string {
	t.Helper()
	var buf bytes.Buffer
	sink := results.NewJSONL(&buf)
	for k := 0; k < total; k++ {
		if !keep(k) {
			continue
		}
		if err := sink.Write(testRecord(k)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestCoordinateFollowTailsAcrossWorkerKill: in follow mode, a worker
// killed mid-gzip-flush (half a record's bytes on disk) is tolerated by
// the tailer, the retry republishes the shard, and the followed stream
// is still byte-identical to the serial reference.
func TestCoordinateFollowTailsAcrossWorkerKill(t *testing.T) {
	const total, shards = 8, 2
	opts := baseOptions(t, total, shards)
	opts.Follow = true
	opts.Workers = 2
	opts.RetryBase = time.Millisecond
	opts.PollInterval = time.Millisecond
	var kills atomic.Int64
	opts.Run = func(ctx context.Context, task Task, out, logw io.Writer) error {
		if task.Index == 1 && task.Attempt == 1 {
			kw := chaos.NewKillWriter(out, 1, true)
			sink := results.NewJSONL(kw)
			if err := sink.Write(testRecord(task.Indices[0])); err != nil {
				return err
			}
			// Give the tailer several polls to observe the live prefix
			// before the torn tail lands.
			time.Sleep(8 * opts.PollInterval)
			kills.Add(1)
			return sink.Write(testRecord(task.Indices[1])) // torn: half the bytes land, then ErrKilled
		}
		return testWorker(total, nil, nil)(ctx, task, out, logw)
	}
	var buf bytes.Buffer
	opts.Sink = results.NewJSONL(&buf)
	res, err := Coordinate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if kills.Load() != 1 {
		t.Fatalf("kill hook fired %d times, want 1", kills.Load())
	}
	if res.Records != total {
		t.Fatalf("Records = %d, want %d", res.Records, total)
	}
	if buf.String() != serialBytes(t, total) {
		t.Fatal("followed stream differs from the serial reference after a mid-flush kill")
	}
}

// TestDoctorHealingArtifacts: the doctor findings the self-healing
// machinery can leave behind — a stale partial report, a corrupt one, a
// leftover speculative side file, and orphaned merge spill buckets.
func TestDoctorHealingArtifacts(t *testing.T) {
	t.Run("corrupt-partial", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(PartialPath(dir), []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		wantFinding(t, dir, "corrupt-partial")
	})
	t.Run("stale-partial", func(t *testing.T) {
		opts := baseOptions(t, 8, 2)
		man := newManifest(opts, planPartition(8, 2, nil))
		man.init()
		if err := man.save(chaos.OS, opts.StateDir); err != nil {
			t.Fatal(err)
		}
		rep := &PartialReport{Version: partialVersion, Params: "other-params", Total: 8}
		if err := rep.save(chaos.OS, opts.StateDir); err != nil {
			t.Fatal(err)
		}
		wantFinding(t, opts.StateDir, "stale-partial")
	})
	t.Run("stale-speculation", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(specShardFile(dir, 3), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		f := wantFinding(t, dir, "stale-speculation")
		if f.Path != specShardFile(dir, 3) {
			t.Fatalf("finding path %q", f.Path)
		}
	})
	t.Run("orphaned-spill", func(t *testing.T) {
		dir := t.TempDir()
		spill := PartialPath(dir) // reuse the join; replace the base
		spill = spill[:len(spill)-len(partialName)] + "merge-spill"
		if err := os.MkdirAll(spill, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(spill+"/bucket-0000.jsonl", []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		f := wantFinding(t, dir, "orphaned-spill")
		if !strings.HasPrefix(f.Fix, "rm -r ") {
			t.Fatalf("orphaned-spill fix %q should remove the directory", f.Fix)
		}
	})
}

// wantFinding asserts doctor reports exactly one finding with the code
// and returns it.
func wantFinding(t *testing.T, stateDir, code string) Finding {
	t.Helper()
	findings, err := DoctorState(stateDir, "repro")
	if err != nil {
		t.Fatal(err)
	}
	var got []Finding
	for _, f := range findings {
		if f.Code == code {
			got = append(got, f)
		}
	}
	if len(got) != 1 {
		t.Fatalf("want one %q finding, got %+v", code, findings)
	}
	return got[0]
}
