package sensorfusion

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sensorfusion/internal/cache"
	"sensorfusion/internal/coordinator"
	"sensorfusion/internal/experiments"
	"sensorfusion/internal/results"
)

// This file exposes the parallel campaign engine and the streaming
// results pipeline through the public facade: run the paper's full
// Section IV-A simulation campaign (or a seeded sample, or one shard of
// it) across all cores, stream typed records to a sink, cache
// per-configuration results, and merge shard outputs into the final
// report.

// CampaignResult holds the evaluated campaign rows plus any violations
// of the paper's "Descending is never better than Ascending"
// observation.
type CampaignResult = experiments.SweepResult

// Record is one typed result record of the streaming pipeline; Sink
// consumes a stream of them. See StreamCampaign and the sink
// constructors.
type Record = results.Record

// Sink consumes a stream of Records.
type Sink = results.Sink

// NewJSONLSink streams records to w as one JSON object per line: the
// shard/merge interchange format (zero allocations per record on the
// hot path).
func NewJSONLSink(w io.Writer) Sink { return results.NewJSONL(w) }

// NewCSVSink streams records to w as CSV with a header row.
func NewCSVSink(w io.Writer) Sink { return results.NewCSV(w) }

// NewTableSink buffers records and renders an aligned text table to w
// at Flush.
func NewTableSink(w io.Writer) Sink { return results.NewTable(w) }

// NewRotatingJSONLSink streams records across size-rotated, optionally
// gzip-compressed JSONL files under the given base path ("out.jsonl"
// with rotation produces out-0001.jsonl, out-0002.jsonl, ...; compress
// appends ".gz"). Concatenating the members — or reading them back with
// ReadRecordsFile, which decompresses transparently — reproduces the
// exact bytes of a plain JSONL stream, so larger-than-memory campaigns
// can write compressed, bounded-size files without giving up byte
// stability. rotateBytes <= 0 disables rotation.
func NewRotatingJSONLSink(path string, rotateBytes int64, compress bool) Sink {
	return results.NewRotatingJSONL(path, results.RotateOptions{MaxBytes: rotateBytes, Compress: compress})
}

// ReadRecordsFile parses one JSONL record file, transparently
// decompressing *.gz — the read-back path for rotated or compressed
// sink output. Parse errors carry the file name and line number.
func ReadRecordsFile(path string) ([]Record, error) {
	rd, err := results.NewFileReader(path)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	var recs []Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// CampaignOptions configures RunCampaign and StreamCampaign.
type CampaignOptions struct {
	// Workers bounds the engine's worker goroutines (<= 0 selects
	// NumCPU). The result is byte-identical for every value: tasks are
	// seeded per index from Seed and collected in index order.
	Workers int
	// Seed is the root seed of the deterministic per-task seed tree and
	// of the SampleK configuration draw.
	Seed int64
	// SampleK, when positive, evaluates a seeded sample of that many
	// configurations instead of the full enumeration.
	SampleK int
	// Step is the measurement and attacker discretization (0 = 1.0).
	Step float64
	// ShardIndex/ShardCount, when ShardCount > 0, restrict the run to
	// the ShardIndex-th of ShardCount deterministic partitions of the
	// enumeration (0-based). Records keep their global enumeration
	// index, so the merge of all shards is byte-identical to the
	// unsharded stream.
	ShardIndex, ShardCount int
	// CacheDir, when non-empty, opens a content-addressed result store
	// there: each configuration's row is memoized under a digest of
	// (config, options, seed), and a warm re-run skips every simulation.
	CacheDir string
	// Batch, when > 1, evaluates that many consecutive configurations
	// per engine task, amortizing per-task overhead across cheap
	// configurations. Results are byte-identical for every batch size.
	Batch int
	// Lengths, when non-nil, replaces the paper's interval-length grid
	// {5,8,...,20} in the campaign enumeration (strictly increasing,
	// positive) — the spec knob the incremental Update workflow diffs
	// on.
	Lengths []float64
}

func (o CampaignOptions) internal() (experiments.CampaignOptions, error) {
	opts := experiments.CampaignOptions{
		Table1Options: experiments.Table1Options{
			MeasureStep:  o.Step,
			AttackerStep: o.Step,
			Parallel:     o.Workers,
			Seed:         o.Seed,
			Batch:        o.Batch,
		},
		SampleK: o.SampleK,
		Shard:   experiments.ShardSpec{Index: o.ShardIndex, Count: o.ShardCount},
		Lengths: o.Lengths,
	}
	if o.CacheDir != "" {
		store, err := cache.Open(o.CacheDir)
		if err != nil {
			return experiments.CampaignOptions{}, err
		}
		opts.Cache = store
	}
	return opts, nil
}

// RunCampaign evaluates every (widths multiset, fa) configuration of the
// paper's campaign — n in [3,5], widths from {5,8,...,20}, fa in
// [1, ceil(n/2)-1] — through the parallel campaign engine and checks the
// paper's never-smaller observation on each.
func RunCampaign(o CampaignOptions) (CampaignResult, error) {
	opts, err := o.internal()
	if err != nil {
		return CampaignResult{}, err
	}
	return experiments.RunCampaign(opts)
}

// StreamCampaign evaluates the campaign and streams one typed record per
// configuration into sink, in global enumeration order as engine tasks
// complete. It returns the never-smaller violations observed in this run
// (this shard only when sharded; merge re-checks the union) and flushes
// the sink on success.
func StreamCampaign(o CampaignOptions, sink Sink) ([]string, error) {
	opts, err := o.internal()
	if err != nil {
		return nil, err
	}
	violations, err := experiments.StreamCampaign(opts, sink)
	if err != nil {
		return nil, err
	}
	return violations, sink.Flush()
}

// ReadRecords parses a JSONL record stream previously written by a
// JSONL sink.
func ReadRecords(r io.Reader) ([]Record, error) { return results.ReadJSONL(r) }

// MergeRecords reassembles shard record streams (concatenated in any
// order) into the global enumeration order and writes them to sink —
// the merge of all m shards of a campaign run is byte-identical to the
// unsharded stream. Interior gaps and duplicate indices are errors; a
// missing tail is only detectable against an expected record count, so
// pass expect > 0 (e.g. 686 for the full campaign) whenever the total
// is known, or <= 0 to skip the count check. The sink is flushed on
// success.
func MergeRecords(recs []Record, sink Sink, expect int) error {
	return results.MergeInto(recs, sink, expect)
}

// CheckNeverSmaller re-runs the paper's never-smaller claim over a
// merged record set, returning one violation string per offending
// configuration.
func CheckNeverSmaller(recs []Record) []string { return experiments.CheckNeverSmaller(recs) }

// CampaignReport renders a campaign result as the repro CLI prints it.
func CampaignReport(r CampaignResult) string { return experiments.SweepReport(r) }

// CoordinatorOptions configures Coordinate, the resumable sharded
// campaign runner. The zero value of every field is usable: Workers and
// Shards default to sensible local-machine values, and the campaign
// knobs (Seed, Step, SampleK) mean the same as in CampaignOptions.
type CoordinatorOptions struct {
	// StateDir holds the coordinator's manifest, the per-shard record
	// files and worker logs, and the shared result cache ("cache/"
	// inside it). Required. Killing a coordinated run at any point and
	// calling Coordinate again with Resume set continues from this
	// directory with completed work served from disk and cache.
	StateDir string
	// Workers bounds concurrent shard workers (<= 0 selects NumCPU,
	// capped at Shards).
	Workers int
	// Shards is the number of deterministic campaign partitions
	// (<= 0 selects 2x the worker count: mild over-sharding keeps
	// straggler reassignment and resume granularity useful).
	Shards int
	// Resume continues a previous run's state directory instead of
	// refusing to touch it.
	Resume bool
	// Follow streams merged records to the sink while shards are still
	// running (follow-the-leader merging) instead of only at the end.
	// The output bytes are identical either way.
	Follow bool
	// Seed, Step, and SampleK mean the same as in CampaignOptions and
	// must be identical across the legs of a resumed run (the state
	// directory is fingerprinted with them).
	Seed    int64
	Step    float64
	SampleK int
	// Lengths, when non-nil, replaces the paper's interval-length grid
	// {5,8,...,20} in the campaign enumeration — the spec knob an
	// incremental Update diffs on. Like Seed/Step/SampleK it is part of
	// the state directory's fingerprint (only when set, so existing
	// state directories keep resuming).
	Lengths []float64
	// ShardTimeout, when positive, kills and re-queues a shard attempt
	// that runs longer (straggler reassignment). The shared cache turns
	// the retry into cached replay plus the remaining work.
	ShardTimeout time.Duration
	// MaxAttempts bounds worker launches per shard (default 3).
	MaxAttempts int
	// Balance switches the planner from modular equal-count shards to
	// cost-balanced ones: each configuration's cost is estimated
	// analytically (grid combinations × sensors × attacker placements),
	// expensive configurations are spread across shards (LPT packing),
	// and the dynamic work queue releases shards heaviest-first — so the
	// straggler tail shrinks instead of relying on the deadline kill.
	// Shard record files keep global indices either way, and a resumed
	// run keeps the partition its manifest recorded, so Balance only
	// matters for fresh state directories.
	Balance bool
	// MergeWindow, when positive, bounds the final merge's reorder
	// buffer to that many records, spilling the overflow to files under
	// StateDir: peak merge memory is set by the window, not the
	// campaign size. 0 merges unbounded in memory.
	MergeWindow int
	// WorkerParallel bounds each worker's own engine goroutines
	// (<= 0 divides NumCPU across the workers).
	WorkerParallel int
	// Speculate lets an otherwise-idle worker duplicate the running
	// shard predicted to finish last into a side file; whichever attempt
	// validates first publishes. Output bytes are unaffected.
	Speculate bool
	// Partial degrades gracefully instead of failing the run: shards
	// whose attempt budget is spent are recorded in partial.json under
	// StateDir, the completed shards still merge, and the result reports
	// the degradation; a later Resume completes the campaign. Mutually
	// exclusive with Follow.
	Partial bool
	// ReproCommand, when non-empty, runs each shard as a separate
	// worker process: the argv prefix of a repro binary (e.g.
	// {"/usr/local/bin/repro"}), to which the campaign subcommand and
	// flags are appended — the deployment `repro coordinate` uses with
	// its own executable. When empty, shards run in-process, which
	// keeps Coordinate usable as a pure library (same manifest, cache,
	// validation, and resume machinery; no process isolation, and
	// straggler kills wait for the engine's cooperative cancellation).
	ReproCommand []string
	// Log, when non-nil, receives coordinator progress prose (the CLI
	// passes stderr).
	Log io.Writer
}

// CoordinateResult summarizes a completed coordinated run: merged
// record count, never-smaller violations, reused shards, worker
// attempts and speculations, and a partial run's failed shards.
type CoordinateResult = coordinator.Result

// FailedShard is one terminally failed shard in a partial result (see
// CoordinateResult.Failed and coordinator.FailedShard).
type FailedShard = coordinator.FailedShard

// normalized resolves defaults shared by the fingerprint, the workers,
// and the planner, so "zero value" and "explicit default" describe the
// same campaign.
func (o CoordinatorOptions) normalized() CoordinatorOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Shards <= 0 {
		o.Shards = 2 * o.Workers
	}
	if o.Workers > o.Shards {
		o.Workers = o.Shards
	}
	if o.Step == 0 {
		o.Step = 1
	}
	if o.WorkerParallel <= 0 {
		o.WorkerParallel = runtime.NumCPU() / o.Workers
		if o.WorkerParallel < 1 {
			o.WorkerParallel = 1
		}
	}
	return o
}

// campaignOptions is the per-shard campaign configuration (sharding
// itself is applied per task by the coordinator).
func (o CoordinatorOptions) campaignOptions(ctx context.Context, store *cache.Store) experiments.CampaignOptions {
	return experiments.CampaignOptions{
		Table1Options: experiments.Table1Options{
			MeasureStep:  o.Step,
			AttackerStep: o.Step,
			Parallel:     o.WorkerParallel,
			Seed:         o.Seed,
			Cache:        store,
			Context:      ctx,
		},
		SampleK: o.SampleK,
		Lengths: o.Lengths,
	}
}

// params fingerprints every knob that shapes shard file content; it is
// stored in the manifest so a resume under different parameters is
// refused instead of merging unrelated streams. A custom length grid
// joins the fingerprint only when set, so state directories written
// before the knob existed keep resuming.
func (o CoordinatorOptions) params(total int) string {
	p := fmt.Sprintf("campaign|seed=%d|step=%g|k=%d|shards=%d|total=%d",
		o.Seed, o.Step, o.SampleK, o.Shards, total)
	if o.Lengths != nil {
		p += "|lengths=" + formatLengths(o.Lengths)
	}
	return p
}

// formatLengths renders a length grid in the CLI's -lengths syntax.
func formatLengths(lengths []float64) string {
	parts := make([]string, len(lengths))
	for i, v := range lengths {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// Coordinate runs the campaign as a resumable sharded job: the
// enumeration is partitioned into Shards deterministic slices, workers
// evaluate them concurrently against one shared content-addressed cache
// under StateDir, per-shard progress is tracked in a crash-safe
// manifest, stragglers are killed and reassigned by deadline, and the
// shard streams are merged into sink in global enumeration order —
// byte-identical to the unsharded StreamCampaign run. Kill the process
// at any point and call Coordinate again with Resume set: completed
// shards are served from disk, partially computed configurations from
// the cache, and no simulation ever runs twice.
func Coordinate(o CoordinatorOptions, sink Sink) (CoordinateResult, error) {
	o = o.normalized()
	if o.StateDir == "" {
		return CoordinateResult{}, fmt.Errorf("sensorfusion: CoordinatorOptions.StateDir is required")
	}
	total, err := o.campaignOptions(nil, nil).PlannedCount()
	if err != nil {
		return CoordinateResult{}, err
	}
	cacheDir := filepath.Join(o.StateDir, "cache")
	costs, err := o.plannedCosts(cacheDir, nil)
	if err != nil {
		return CoordinateResult{}, err
	}
	res, err := coordinator.Coordinate(coordinator.Options{
		StateDir:     o.StateDir,
		Shards:       o.Shards,
		Workers:      o.Workers,
		Total:        total,
		Params:       o.params(total),
		Resume:       o.Resume,
		Follow:       o.Follow,
		ShardTimeout: o.ShardTimeout,
		MaxAttempts:  o.MaxAttempts,
		Costs:        costs,
		MergeWindow:  o.MergeWindow,
		Seed:         o.Seed,
		Speculate:    o.Speculate,
		Partial:      o.Partial,
		Run:          o.worker(cacheDir),
		Sink:         sink,
		CheckRecord:  experiments.RecordNeverSmaller,
		Log:          o.Log,
	})
	if err != nil {
		return CoordinateResult{}, err
	}
	// Persist the spec digest manifest: the completed campaign's
	// per-config content addresses, which a later Update diffs against.
	// A partial run persists nothing — its record set is incomplete, so
	// an Update diffing against it would skip configurations that never
	// actually ran.
	if !res.Partial {
		digests, err := o.campaignOptions(nil, nil).ConfigDigests()
		if err != nil {
			return CoordinateResult{}, err
		}
		if err := coordinator.SaveSpec(o.StateDir, o.params(total), digests); err != nil {
			return CoordinateResult{}, err
		}
	}
	return res, nil
}

// worker builds the per-shard WorkerFunc this configuration dispatches:
// an exec of the repro binary when ReproCommand is set, the in-process
// engine otherwise. Both forms share the cache directory, honor the
// task's explicit index set, and write plain JSONL to out.
func (o CoordinatorOptions) worker(cacheDir string) coordinator.WorkerFunc {
	if len(o.ReproCommand) > 0 {
		argv := append(append([]string{}, o.ReproCommand...),
			"campaign", "-format", "json",
			"-seed", strconv.FormatInt(o.Seed, 10),
			"-step", strconv.FormatFloat(o.Step, 'g', -1, 64),
			"-parallel", strconv.Itoa(o.WorkerParallel),
			"-cache", cacheDir)
		if o.SampleK > 0 {
			argv = append(argv, "-k", strconv.Itoa(o.SampleK))
		}
		if o.Lengths != nil {
			argv = append(argv, "-lengths", formatLengths(o.Lengths))
		}
		return coordinator.ExecWorker(argv)
	}
	return func(ctx context.Context, task coordinator.Task, out, logw io.Writer) error {
		store, err := cache.Open(cacheDir)
		if err != nil {
			return err
		}
		opts := o.campaignOptions(ctx, store)
		opts.Shard = experiments.ShardSpec{Indices: task.Indices}
		_, err = experiments.StreamCampaign(opts, results.NewJSONL(out))
		fmt.Fprintf(logw, "cache %s: %d hits, %d misses\n", store.Dir(), store.Hits(), store.Misses())
		return err
	}
}

// plannedCosts builds the cost vector the partition planner packs from
// (nil when Balance is off). The unsharded plan's vector is indexed by
// global enumeration index; measured per-configuration wall times
// recorded in the shared cache by previous runs take precedence over
// the analytic estimate, so a resumed or repeated campaign packs shards
// from real timings. A non-nil universe restricts the vector to those
// global indices, position-aligned — the form a sparse update run's
// planner needs.
func (o CoordinatorOptions) plannedCosts(cacheDir string, universe []int) ([]float64, error) {
	if !o.Balance {
		return nil, nil
	}
	store, err := cache.Open(cacheDir)
	if err != nil {
		return nil, err
	}
	planOpts := o.campaignOptions(nil, store)
	costs, err := planOpts.PlannedCosts()
	if err != nil {
		return nil, err
	}
	measured, any, err := planOpts.MeasuredCosts()
	if err != nil {
		return nil, err
	}
	if any {
		costs = experiments.CalibratedCosts(costs, measured)
	}
	if universe != nil {
		sub := make([]float64, len(universe))
		for j, k := range universe {
			if k < 0 || k >= len(costs) {
				return nil, fmt.Errorf("sensorfusion: universe index %d outside the %d-config plan", k, len(costs))
			}
			sub[j] = costs[k]
		}
		costs = sub
	}
	return costs, nil
}

// UpdateResult summarizes an incremental campaign update.
type UpdateResult struct {
	// Total is the new spec's configuration count.
	Total int
	// Unchanged, Invalidated, and New count the spec differ's three
	// classes over the new spec's indices (see experiments.SpecDiff).
	Unchanged, Invalidated, New int
	// Reran is the number of configurations actually re-dispatched
	// (Invalidated + New).
	Reran int
	// Records is the merged record count delivered to the sink
	// (== Total).
	Records int
	// Violations is the never-smaller check over the full merged set.
	Violations []string
	// Attempts counts worker launches the partial re-run performed.
	Attempts int
	// ReplayMisses counts cache misses during the final full-spec
	// replay. The incremental contract makes this zero: every unchanged
	// config was cached by the previous campaign and every rerun config
	// by this one.
	ReplayMisses int64
}

// Update incrementally recomputes a previously coordinated campaign
// after a spec change: it loads the state directory's spec digest
// manifest, diffs it against this options' spec, re-runs ONLY the
// invalidated and new configuration indices through the cost-balanced
// coordinator (sharing the campaign's cache, so everything else is a
// hit), and then streams the FULL new spec through the cache into sink
// — byte-identical to a from-scratch run of the new spec, because every
// record either replays from the cache or was just computed. On success
// the spec manifest is rewritten for the new spec, so updates chain. An
// update interrupted mid-re-run is safe to repeat: the diff recomputes
// identically and completed shards resume from disk.
func Update(o CoordinatorOptions, sink Sink) (UpdateResult, error) {
	o = o.normalized()
	if o.StateDir == "" {
		return UpdateResult{}, fmt.Errorf("sensorfusion: CoordinatorOptions.StateDir is required")
	}
	if o.Resume || o.Follow {
		return UpdateResult{}, fmt.Errorf("sensorfusion: Update manages resume itself; Resume and Follow must be unset")
	}
	old, err := coordinator.LoadSpec(o.StateDir)
	if err != nil {
		return UpdateResult{}, err
	}
	if old == nil {
		return UpdateResult{}, fmt.Errorf("sensorfusion: %s has no spec manifest (%s) — run a full Coordinate first; update only works against a completed campaign",
			o.StateDir, coordinator.SpecPath(o.StateDir))
	}
	digests, err := o.campaignOptions(nil, nil).ConfigDigests()
	if err != nil {
		return UpdateResult{}, err
	}
	diff := experiments.DiffSpecs(old.Digests, digests)
	rerun := diff.Rerun()
	res := UpdateResult{
		Total:       len(digests),
		Unchanged:   len(diff.Unchanged),
		Invalidated: len(diff.Invalidated),
		New:         len(diff.New),
		Reran:       len(rerun),
	}
	cacheDir := filepath.Join(o.StateDir, "cache")
	if len(rerun) > 0 {
		updateParams := o.params(len(digests)) + "|update=" + experiments.FormatIndexSet(rerun)
		costs, err := o.plannedCosts(cacheDir, rerun)
		if err != nil {
			return UpdateResult{}, err
		}
		shards := o.Shards
		if shards > len(rerun) {
			shards = len(rerun)
		}
		// Resume an interrupted update of this exact spec; anything else
		// in the state dir (the previous campaign, an older update) is
		// replaced — its results live on in the cache, which is all the
		// final replay reads.
		resume := false
		if st, err := coordinator.ReadStatus(o.StateDir); err == nil && st.Params == updateParams {
			resume = true
		}
		cres, err := coordinator.Coordinate(coordinator.Options{
			StateDir:     o.StateDir,
			Shards:       shards,
			Workers:      o.Workers,
			Total:        len(rerun),
			Params:       updateParams,
			Universe:     rerun,
			Resume:       resume,
			Replace:      !resume,
			ShardTimeout: o.ShardTimeout,
			MaxAttempts:  o.MaxAttempts,
			Costs:        costs,
			MergeWindow:  o.MergeWindow,
			Run:          o.worker(cacheDir),
			// The re-run's records go straight to the shared cache as a
			// side effect of computing them; the merged sparse stream
			// itself is only validated here, then discarded — the final
			// full-spec replay below is the one that feeds the caller's
			// sink, in complete global order.
			Sink:        results.NewJSONL(io.Discard),
			CheckRecord: experiments.RecordNeverSmaller,
			Log:         o.Log,
		})
		if err != nil {
			return UpdateResult{}, err
		}
		res.Attempts = cres.Attempts
	}
	// Full-spec replay through the cache: unchanged configs were cached
	// by the previous campaign, rerun configs by the phase above, so
	// this streams the complete new-spec record set — byte-identical to
	// a from-scratch run by the engine's determinism — without
	// simulating anything.
	store, err := cache.Open(cacheDir)
	if err != nil {
		return UpdateResult{}, err
	}
	replay := o.campaignOptions(nil, store)
	missesBefore := store.Misses()
	violations, err := experiments.StreamCampaign(replay, sink)
	if err != nil {
		return UpdateResult{}, err
	}
	if err := sink.Flush(); err != nil {
		return UpdateResult{}, err
	}
	res.Records = res.Total
	res.Violations = violations
	res.ReplayMisses = store.Misses() - missesBefore
	if err := coordinator.SaveSpec(o.StateDir, o.params(len(digests)), digests); err != nil {
		return UpdateResult{}, err
	}
	return res, nil
}

// Finding is one problem Doctor diagnosed, with its copy-pasteable fix
// command (see coordinator.Finding).
type Finding = coordinator.Finding

// DoctorOptions selects what Doctor validates.
type DoctorOptions struct {
	// StateDir, when non-empty, validates a coordinator state directory
	// (lock, manifest, spec, shard files).
	StateDir string
	// CacheDir, when non-empty, validates a result cache directory
	// (entry integrity and self-digests). When
	// empty and StateDir is set, the campaign's conventional
	// StateDir/cache is validated if it exists.
	CacheDir string
	// ReproCommand is the command name printed in fix commands that go
	// through the CLI ("repro" when empty).
	ReproCommand string
}

// Doctor validates campaign state and cache directories, returning one
// finding per problem — each with the exact command that fixes it — and
// nothing when everything is clean. It never modifies either directory.
func Doctor(o DoctorOptions) ([]Finding, error) {
	if o.StateDir == "" && o.CacheDir == "" {
		return nil, fmt.Errorf("sensorfusion: Doctor needs a StateDir or a CacheDir")
	}
	var findings []Finding
	if o.StateDir != "" {
		fs, err := coordinator.DoctorState(o.StateDir, o.ReproCommand)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
		if o.CacheDir == "" {
			if conventional := filepath.Join(o.StateDir, "cache"); dirExists(conventional) {
				o.CacheDir = conventional
			}
		}
	}
	if o.CacheDir != "" {
		fs, err := doctorCache(o.CacheDir)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	return findings, nil
}

func dirExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// doctorCache validates every entry of a result cache directory: stray
// non-entry files (interrupted atomic writes), and entries that do not
// parse or whose self-digest is missing or disagrees with the key they
// sit under. Every fix is an rm: the cache is a memo, so removing an
// entry costs one recomputation and can never lose results.
func doctorCache(cacheDir string) ([]Finding, error) {
	store, err := cache.Open(cacheDir)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	err = store.Scan(func(e cache.Entry) error {
		if err := experiments.InspectCacheEntry(e); err != nil {
			path := filepath.Join(cacheDir, e.Key+".json")
			findings = append(findings, Finding{Code: "corrupt-cache-entry", Path: path,
				Detail: err.Error(), Fix: "rm " + path})
		}
		return nil
	}, func(path string) {
		findings = append(findings, Finding{Code: "cache-stray", Path: path,
			Detail: "file is not a cache entry (leftover temp file from an interrupted write, or foreign data)",
			Fix:    "rm " + path})
	})
	if err != nil {
		return nil, err
	}
	return findings, nil
}
