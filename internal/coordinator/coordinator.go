// Package coordinator is the resumable multi-process campaign
// coordinator: the scaling layer that turns the deterministic
// shard/merge workflow (internal/experiments sharding, internal/results
// ordering, internal/cache memoization) into a supervised run across N
// local worker processes.
//
// The coordinator partitions an enumerated campaign into M shards,
// dispatches each shard to a worker (by default a re-exec of
// `repro campaign -shard i/m` with records on stdout), and tracks
// per-shard progress in a crash-safe JSON manifest written with the
// cache's atomic temp+rename discipline. Shard record streams are
// gzip-compressed at the source: the worker emits plain JSONL and the
// coordinator compresses it on the way to disk (shard-NNNN.jsonl.gz),
// the one form every read path — validation, resume, follow tailing,
// merge — accepts. Workers share one content-addressed cache
// directory, so every configuration is
// simulated at most once across all workers, retries, and coordinator
// restarts. Stragglers are detected by a per-attempt deadline: the
// worker is killed and its shard re-queued, and because the retried
// attempt replays completed configurations from the cache, a shard
// always makes forward progress across attempts.
//
// # Crash safety and resume
//
// Killing the coordinator (or any worker) at any instant is recoverable:
// on restart with Resume, the manifest is reloaded, every shard file is
// revalidated against its expected global index set, complete shards
// are served from disk without launching anything, and incomplete or
// corrupt shards are re-run — with the shared cache eliminating
// re-simulation of every configuration that finished before the crash.
// The merged output is byte-identical to the unsharded serial run
// regardless of how many times the campaign was killed and resumed.
//
// # Follow-the-leader merging
//
// In Follow mode a tailer goroutine polls the shard files as the
// workers append to them, parses newly completed lines, and releases
// records to the output sink in global enumeration order as soon as the
// contiguous prefix grows — partial results stream out long before the
// slowest shard finishes, and the final bytes are identical to the
// non-follow merge.
package coordinator

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"sensorfusion/internal/chaos"
	"sensorfusion/internal/experiments"
	"sensorfusion/internal/results"
)

// Task identifies one shard attempt handed to a worker.
type Task struct {
	// Index is the shard's slot number and Count the total shard count.
	// For a cost-balanced run these are bookkeeping only; the work a
	// task owns is its Indices.
	Index, Count int
	// Indices is the shard's global enumeration index set, strictly
	// increasing: the worker must produce exactly these records, in
	// this order. For modular (non-balanced) shards this is the residue
	// class {k : k ≡ Index (mod Count)}.
	Indices []int
	// Attempt is 1 for the shard's first launch and increments on every
	// retry (including retries across coordinator restarts).
	Attempt int
}

// ShardArg renders the worker's -shard argument for this task in the
// form experiments.ParseShard reads back: the compact index-set form.
func (t Task) ShardArg() string {
	return experiments.FormatIndexSet(t.Indices)
}

// WorkerFunc computes one shard, writing its records as JSONL to out
// (one complete line per record, in increasing global index order — the
// contract `repro campaign -shard i/m -format json` already honors).
// Diagnostics go to logw, which appends to the shard's log file. The
// context is canceled when the shard's deadline expires or the
// coordinator shuts down; exec-based workers are killed outright,
// in-process workers should return promptly (see campaign.Options
// .Context). A WorkerFunc must be safe for concurrent invocations with
// distinct shards.
type WorkerFunc func(ctx context.Context, task Task, out, logw io.Writer) error

// Options configures a coordinated campaign run.
type Options struct {
	// StateDir holds the manifest, the shard record files, the per-shard
	// worker logs, and (by convention of the callers) the shared result
	// cache. It is created if missing.
	StateDir string
	// Shards is the number of deterministic partitions M (> 0).
	Shards int
	// Workers bounds concurrent shard workers; <= 0 selects NumCPU,
	// and the bound is additionally capped at Shards.
	Workers int
	// Total is the expected record count across all shards (the
	// campaign's planned configuration count). Shard validation and the
	// final merge check against it.
	Total int
	// Params fingerprints every knob that shapes shard file content
	// (seed, step, sampling, shard count). It is stored in the manifest;
	// a resume whose Params differ is refused.
	Params string
	// Universe, when non-nil, is the SPARSE global index set this run
	// covers (strictly increasing; len(Universe) == Total): the
	// incremental-update case, where only invalidated indices re-run.
	// Workers still receive global indices and write them into their
	// records; the final merge releases records in Universe order.
	// nil means the contiguous [0, Total) of a full campaign. Follow
	// mode does not support a sparse universe.
	Universe []int
	// Resume allows an existing manifest in StateDir to be continued.
	// Without Resume, a state directory that already has a manifest is
	// an error (refusing to silently clobber a previous campaign).
	Resume bool
	// Replace starts a FRESH campaign in a state directory that already
	// holds a manifest: the old ledger and shard files are discarded and
	// replanned, as `repro update` does after a spec change. Mutually
	// exclusive with Resume.
	Replace bool
	// Follow enables follow-the-leader merging: the output sink receives
	// records in global order while shards are still running, instead of
	// only after the last one completes. Output bytes are identical
	// either way.
	Follow bool
	// ShardTimeout, when positive, is the straggler deadline for one
	// shard attempt: a worker running longer is killed and its shard
	// re-queued (the shared cache turns the retry into replay + the
	// remaining work, so timed-out shards still make forward progress).
	ShardTimeout time.Duration
	// MaxAttempts bounds launches per shard before the run fails
	// (default 3).
	MaxAttempts int
	// PollInterval is the follow-tailer's poll cadence (default 150ms).
	PollInterval time.Duration
	// Costs, when non-nil, holds the estimated evaluation cost of every
	// global record index (len == Total) and switches the planner from
	// modular residue-class shards to cost-balanced ones: indices are
	// packed greedily, heaviest first, into the currently lightest
	// shard (LPT), and the work queue releases shards in descending
	// cost order, so the straggler tail shrinks instead of being
	// deadline-killed. Resumed runs keep the partition their manifest
	// recorded regardless of this field.
	Costs []float64
	// MergeWindow, when positive, bounds the final merge's reorder
	// buffer to that many records: out-of-window records spill to
	// temporary files under StateDir, so peak merge memory is set by
	// the window, not the campaign size. 0 merges unbounded in memory.
	MergeWindow int
	// Run computes one shard. Required.
	Run WorkerFunc
	// Sink receives the merged record stream in global enumeration
	// order. Required.
	Sink results.Sink
	// CheckRecord, when non-nil, re-runs an invariant (the paper's
	// never-smaller claim) on every merged record as it streams to the
	// Sink; returned descriptions accumulate into Result.Violations.
	// Per-record checking keeps the merge's memory bounded — nothing
	// materializes the record set just to validate it.
	CheckRecord func(results.Record) (violation string, bad bool)
	// Log, when non-nil, receives the coordinator's progress prose.
	Log io.Writer
	// FS is the filesystem seam the coordinator's state I/O (shard
	// files, manifest, spill buckets, partial report) goes through; nil
	// selects the real OS. The chaos harness substitutes an injector
	// here. The lock file and follow tailer stay on the real OS: the
	// lock guards against REAL concurrent coordinators, and the tailer
	// is read-only with a final authoritative drain.
	FS chaos.FS
	// RetryBase is the first retry's backoff scale (default 250ms): a
	// transiently failed shard is re-dispatched no sooner than a
	// deterministic, seeded delay in [d/2, d] with d doubling per
	// attempt up to RetryMax (default 5s). Stragglers skip the backoff.
	RetryBase time.Duration
	// RetryMax caps the exponential backoff delay.
	RetryMax time.Duration
	// Seed feeds the backoff jitter (and nothing else): the same seed
	// replays the same retry schedule.
	Seed int64
	// Speculate lets an otherwise-idle worker duplicate the running
	// shard predicted to finish last into a side file; whichever attempt
	// validates first publishes. Output bytes are unaffected (validation
	// and merge dedup already tolerate duplicate attempts).
	Speculate bool
	// Partial degrades gracefully instead of failing the run: shards
	// whose attempt budget is spent (or that are classified permanent)
	// are recorded in partial.json, the completed shards still merge,
	// and Result.Partial reports the degradation. `repro coordinate
	// -resume` completes the campaign later. Mutually exclusive with
	// Follow.
	Partial bool
}

// Result summarizes a completed coordinated run.
type Result struct {
	// Records is the merged record count (Options.Total unless Partial).
	Records int
	// Violations collects CheckRecord's descriptions over the merged
	// records (the facade runs the paper's never-smaller check).
	Violations []string
	// SkippedShards counts shards served complete from a previous run's
	// files without launching a worker — the resume path's "zero
	// re-simulation" shards.
	SkippedShards int
	// Attempts counts worker launches performed by this run.
	Attempts int
	// Speculated counts duplicate attempts launched by speculation.
	Speculated int
	// Partial reports a degraded Partial-mode run: Records covers only
	// the completed shards, Failed explains the rest, and partial.json
	// in the state directory carries the same account for doctor/resume.
	Partial bool
	// Failed lists the terminally failed shards of a partial run.
	Failed []FailedShard
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Workers > o.Shards {
		o.Workers = o.Shards
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 150 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = chaos.OS
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 250 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 5 * time.Second
	}
	return o
}

func (o Options) validate() error {
	switch {
	case o.StateDir == "":
		return errors.New("coordinator: StateDir is required")
	case o.Shards <= 0:
		return fmt.Errorf("coordinator: Shards must be positive, got %d", o.Shards)
	case o.Total <= 0:
		return fmt.Errorf("coordinator: Total must be positive, got %d", o.Total)
	case o.Run == nil:
		return errors.New("coordinator: Run worker is required")
	case o.Sink == nil:
		return errors.New("coordinator: Sink is required")
	case o.Costs != nil && len(o.Costs) != o.Total:
		return fmt.Errorf("coordinator: %d cost estimates for %d records", len(o.Costs), o.Total)
	case o.Universe != nil && len(o.Universe) != o.Total:
		return fmt.Errorf("coordinator: universe has %d indices for %d records", len(o.Universe), o.Total)
	case o.Universe != nil && o.Follow:
		return errors.New("coordinator: Follow does not support a sparse Universe")
	case o.Resume && o.Replace:
		return errors.New("coordinator: Resume and Replace are mutually exclusive")
	case o.Partial && o.Follow:
		return errors.New("coordinator: Partial and Follow are mutually exclusive (a followed stream cannot retract the gap a failed shard leaves)")
	}
	if o.Universe != nil {
		last := -1
		for _, k := range o.Universe {
			if k <= last {
				return fmt.Errorf("coordinator: universe not strictly increasing at %d", k)
			}
			last = k
		}
	}
	return nil
}

// planPartition cuts the global indices [0, total) into shards index
// sets. Without costs it uses the modular residue classes (shard i owns
// every k ≡ i mod shards) — equal counts, the layout manual sharding
// uses. With costs it packs cost-BALANCED shards by
// longest-processing-time-first: indices in descending cost order
// each go to the currently lightest shard, so a handful of expensive
// configurations spread across shards instead of clustering into the
// one straggler that blows the deadline. Ties break toward the lower
// index and lower shard, keeping the partition a pure function of
// (total, shards, costs).
func planPartition(total, shards int, costs []float64) [][]int {
	out := make([][]int, shards)
	if costs == nil {
		for i := 0; i < shards; i++ {
			for k := i; k < total; k += shards {
				out[i] = append(out[i], k)
			}
		}
		return out
	}
	order := make([]int, total)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })
	load := make([]float64, shards)
	for _, k := range order {
		lightest := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[lightest] {
				lightest = s
			}
		}
		out[lightest] = append(out[lightest], k)
		load[lightest] += costs[k]
	}
	for i := range out {
		sort.Ints(out[i])
	}
	return out
}

// globalCosts returns the run's per-GLOBAL-INDEX cost estimates:
// opts.Costs is position-aligned, so a sparse universe scatters it to
// global indices (the identity for a full campaign). nil when the run
// carries no estimates.
func globalCosts(opts Options) []float64 {
	if opts.Costs == nil {
		return nil
	}
	if opts.Universe == nil {
		return opts.Costs
	}
	global := make([]float64, opts.Universe[len(opts.Universe)-1]+1)
	for pos, k := range opts.Universe {
		global[k] = opts.Costs[pos]
	}
	return global
}

// partitionCost sums each shard's estimated cost (nil costs → zeros).
func partitionCost(partition [][]int, costs []float64) []float64 {
	out := make([]float64, len(partition))
	if costs == nil {
		return out
	}
	for i, indices := range partition {
		for _, k := range indices {
			out[i] += costs[k]
		}
	}
	return out
}

// validateShardFile checks that a shard file holds exactly the expected
// records: parseable JSONL with precisely the given global indices, in
// order. The file is read incrementally (a shard can exceed memory), and
// the record count is returned on success. A truncated, torn, or
// foreign file is an error — the caller re-runs the shard.
func validateShardFile(fsys chaos.FS, path string, indices []int) (int, error) {
	rd, err := results.NewFileReaderFS(fsys, path)
	if err != nil {
		return 0, err
	}
	defer rd.Close()
	k := 0
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if k >= len(indices) {
			return 0, fmt.Errorf("shard file %s has extra record index %d beyond its %d expected", path, rec.Index, len(indices))
		}
		if rec.Index != indices[k] {
			return 0, fmt.Errorf("shard file %s record %d has index %d, want %d", path, k, rec.Index, indices[k])
		}
		k++
	}
	if k != len(indices) {
		return 0, fmt.Errorf("shard file %s has %d records, want %d", path, k, len(indices))
	}
	return k, nil
}

// pendingShard is one dispatchable shard in the dynamic queue:
// notBefore is its backoff gate (zero = ready now).
type pendingShard struct {
	shard     int
	notBefore time.Time
}

// attemptHandle lets the coordinator cancel one in-flight attempt —
// how a speculative winner stops the primary it beat (and vice versa).
type attemptHandle struct {
	cancel context.CancelFunc
}

// coord is the running state of one Coordinate call.
type coord struct {
	opts    Options
	fsys    chaos.FS
	indices [][]int   // per-shard global index sets (from the manifest)
	cost    []float64 // per-shard estimated cost

	// mu guards everything below; cond is signaled on every queue or
	// state transition so idle workers re-evaluate what to run next.
	mu         sync.Mutex
	cond       *sync.Cond
	man        *manifest
	fatal      error
	remaining  int // non-done shards (failed shards leave it too)
	attempts   int
	pending    []pendingShard
	running    map[int]*attemptHandle // primary attempts in flight
	specs      map[int]*attemptHandle // speculative attempts in flight
	specTried  map[int]bool           // shards already speculated on once
	lastErr    map[int]string         // previous attempt error text, per shard
	failed     []FailedShard          // terminal failures (Partial mode)
	speculated int
	closed     bool // no more dispatches: run finished or failed

	cancel context.CancelFunc
	fol    *follower
}

// saveManLocked publishes the ledger, absorbing transient I/O faults
// with a few quick retries — the manifest is the one file whose write
// failure would otherwise kill an entire healthy run. Caller holds
// c.mu (saves are rare state transitions, never the record hot path).
func (c *coord) saveManLocked() error {
	return saveManifestRetry(c.fsys, c.man, c.opts.StateDir)
}

func saveManifestRetry(fsys chaos.FS, m *manifest, stateDir string) error {
	var err error
	for a := 0; a < 4; a++ {
		if a > 0 {
			time.Sleep(time.Duration(a) * 2 * time.Millisecond)
		}
		if err = m.save(fsys, stateDir); err == nil {
			return nil
		}
	}
	return err
}

// checkSink applies the per-record invariant check to every record
// streaming to the merged output sink, accumulating violations.
type checkSink struct {
	next       results.Sink
	check      func(results.Record) (string, bool)
	violations []string
}

func (s *checkSink) Write(rec results.Record) error {
	if s.check != nil {
		if v, bad := s.check(rec); bad {
			s.violations = append(s.violations, v)
		}
	}
	return s.next.Write(rec)
}

func (s *checkSink) Flush() error { return s.next.Flush() }

func (c *coord) logf(format string, args ...any) {
	if c.opts.Log != nil {
		fmt.Fprintf(c.opts.Log, "coordinate: "+format+"\n", args...)
	}
}

// fail records the first fatal error and cancels everything in flight.
func (c *coord) fail(err error) {
	c.mu.Lock()
	if c.fatal == nil {
		c.fatal = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.cancel()
}

// Coordinate runs the campaign to completion (or resumes one), merging
// the shard outputs into opts.Sink in global enumeration order. On
// success every shard has validated against its expected index set and
// exactly opts.Total records were delivered; the byte stream equals the
// unsharded serial run's.
func Coordinate(opts Options) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(opts.StateDir, 0o755); err != nil {
		return Result{}, fmt.Errorf("coordinator: %w", err)
	}
	release, err := acquireLock(opts.StateDir)
	if err != nil {
		return Result{}, err
	}
	defer release()

	man, indices, err := openManifest(opts)
	if err != nil {
		return Result{}, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &coord{opts: opts, fsys: opts.FS, indices: indices, man: man, cancel: cancel,
		running:   make(map[int]*attemptHandle),
		specs:     make(map[int]*attemptHandle),
		specTried: make(map[int]bool),
		lastErr:   make(map[int]string),
	}
	c.cond = sync.NewCond(&c.mu)
	go func() {
		// Wake every dispatcher wait when the run is canceled, so no
		// worker sleeps through a shutdown.
		<-ctx.Done()
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}()
	c.cost = make([]float64, len(man.Shard))
	for i := range man.Shard {
		c.cost[i] = man.Shard[i].Cost
	}
	if idxCost := globalCosts(opts); idxCost != nil {
		// This run's (possibly measured, possibly re-estimated) per-index
		// costs override the recorded plan's shard sums, so a resumed
		// run dispatches by the costs it was given.
		for i := range c.indices {
			cost := 0.0
			for _, k := range c.indices[i] {
				cost += idxCost[k]
			}
			c.cost[i] = cost
		}
	}
	c.logf("%d shards, %d workers, %d/%d records already on disk",
		opts.Shards, opts.Workers, doneRecords(man), opts.Total)
	c.logCalibration(man)

	// The dynamic work queue: every non-done shard. Dispatch picks the
	// heaviest READY shard each time a worker goes idle (LPT at dispatch
	// time — the tail of the run is made of the cheapest shards), with
	// retry backoff expressed as per-shard not-before gates.
	for i, st := range man.Shard {
		if st.State != shardDone {
			c.pending = append(c.pending, pendingShard{shard: i})
		}
	}
	c.remaining = len(c.pending)
	skippedShards := opts.Shards - c.remaining
	if c.remaining == 0 {
		c.closed = true
	}
	if err := saveManifestRetry(opts.FS, man, opts.StateDir); err != nil {
		return Result{}, err
	}

	// Every merged record flows through the per-record invariant check,
	// in both follow and non-follow modes.
	checked := &checkSink{next: opts.Sink, check: opts.CheckRecord}

	// Follow mode: start the tailer before any worker so no growth goes
	// unobserved.
	var tailDone chan struct{}
	if opts.Follow {
		c.fol = newFollower(checked, opts.Total)
		tailDone = make(chan struct{})
		go func() {
			defer close(tailDone)
			c.tail(ctx)
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.worker(ctx)
		}()
	}
	wg.Wait()

	// Stop the tailer: cancel if it is still polling (a fatal error
	// path), or let it run its final full drain below on success.
	c.mu.Lock()
	fatal := c.fatal
	attempts := c.attempts
	speculated := c.speculated
	failed := append([]FailedShard(nil), c.failed...)
	c.mu.Unlock()
	if fatal != nil {
		cancel()
		if tailDone != nil {
			<-tailDone
		}
		return Result{}, fatal
	}
	if len(failed) > 0 {
		// Partial mode with terminal failures: merge what completed and
		// account for the rest. (Partial excludes Follow, so no tailer.)
		return c.finishPartial(checked, failed, skippedShards, attempts, speculated)
	}

	var merged int
	if opts.Follow {
		cancel() // stop polling; drain deterministically below
		<-tailDone
		// Final full read of every shard file: anything the poller
		// missed between the last tick and completion is deduplicated by
		// the follower, so this is idempotent.
		if err := c.drainAll(); err != nil {
			return Result{}, err
		}
		merged, err = c.fol.finish()
		if err != nil {
			return Result{}, err
		}
	} else {
		// Stream every shard file through the bounded reorder window:
		// shard files are read incrementally and round-robin, records
		// beyond the window spill to files under the state directory,
		// so peak merge memory is O(MergeWindow) records however large
		// the campaign is.
		paths := make([]string, opts.Shards)
		for i := range paths {
			paths[i] = shardFile(opts.StateDir, i)
		}
		spill := filepath.Join(opts.StateDir, "merge-spill")
		var stats results.MergeStats
		if opts.Universe != nil {
			stats, err = results.MergeFilesIndexed(c.fsys, paths, checked, opts.Universe,
				opts.MergeWindow, spill)
		} else {
			stats, err = results.MergeFiles(c.fsys, paths, checked, opts.Total,
				opts.MergeWindow, spill)
		}
		if err != nil {
			return Result{}, err
		}
		merged = stats.Records
		if stats.Spilled > 0 {
			c.logf("merge window %d: %d records spilled to disk, %d held in memory at peak",
				opts.MergeWindow, stats.Spilled, stats.MaxHeld)
		}
	}

	// A fully successful run retires any partial-result report a previous
	// degraded run left behind: the campaign is no longer partial.
	c.fsys.Remove(PartialPath(opts.StateDir))

	res := Result{Records: merged, SkippedShards: skippedShards, Attempts: attempts,
		Speculated: speculated, Violations: checked.violations}
	if err := opts.Sink.Flush(); err != nil {
		return Result{}, err
	}
	c.logf("merged %d records from %d shards (%d shards reused, %d worker attempts)",
		merged, opts.Shards, skippedShards, attempts)
	return res, nil
}

// finishPartial completes a degraded Partial-mode run: the done shards
// merge (in global order over their union) into the sink, partial.json
// records the missing index set and every terminal failure, and the
// Result reports the degradation instead of an error. `repro coordinate
// -resume` later re-runs exactly the failed shards and, on full
// success, deletes the report.
func (c *coord) finishPartial(checked *checkSink, failed []FailedShard, skipped, attempts, speculated int) (Result, error) {
	sort.Slice(failed, func(a, b int) bool { return failed[a].Shard < failed[b].Shard })
	var paths []string
	var union, missing []int
	for i := range c.man.Shard {
		if c.man.Shard[i].State == shardDone {
			paths = append(paths, shardFile(c.opts.StateDir, i))
			union = append(union, c.indices[i]...)
		} else {
			missing = append(missing, c.indices[i]...)
		}
	}
	sort.Ints(union)
	sort.Ints(missing)
	var stats results.MergeStats
	if len(union) > 0 {
		spill := filepath.Join(c.opts.StateDir, "merge-spill")
		var err error
		stats, err = results.MergeFilesIndexed(c.fsys, paths, checked, union, c.opts.MergeWindow, spill)
		if err != nil {
			return Result{}, err
		}
	}
	rep := &PartialReport{
		Version: partialVersion,
		Params:  c.opts.Params,
		Total:   c.opts.Total,
		Merged:  stats.Records,
		Missing: experiments.FormatIndexSet(missing),
		Failed:  failed,
	}
	if err := rep.save(c.fsys, c.opts.StateDir); err != nil {
		return Result{}, err
	}
	if err := c.opts.Sink.Flush(); err != nil {
		return Result{}, err
	}
	c.logf("PARTIAL result: %d/%d records merged, %d shards failed terminally (%s); resume to complete the campaign",
		stats.Records, c.opts.Total, len(failed), PartialPath(c.opts.StateDir))
	return Result{Records: stats.Records, SkippedShards: skipped, Attempts: attempts,
		Speculated: speculated, Partial: true, Failed: failed,
		Violations: checked.violations}, nil
}

// logCalibration fits the cost model from the per-shard wall times the
// manifest has accumulated and logs the predicted remaining work — the
// measured calibration of the analytic cost estimates.
func (c *coord) logCalibration(man *manifest) {
	model, ok, pendingCost := man.calibration()
	if !ok || pendingCost <= 0 {
		return
	}
	c.logf("cost model: %.1f ms per Munit; estimated remaining serial work %v",
		model.NanosPerUnit*1e6/float64(time.Millisecond),
		model.Estimate(pendingCost).Round(time.Second))
}

// openManifest loads or initializes the ledger, resolves every shard's
// global index set, and revalidates every shard file on disk: complete,
// valid files are marked done regardless of what the ledger said (a
// coordinator killed between publishing the file and saving the ledger
// loses nothing), and previously-done shards whose files were truncated
// or corrupted since are demoted to pending. A fresh (non-resume) run
// starts from a clean slate: stale shard files from an abandoned
// campaign are removed, never trusted, since without a manifest nothing
// ties their content to this run's parameters. A fresh run also plans
// its partition here — cost-balanced when Costs are given — while a
// resumed run keeps the partition its manifest recorded.
func openManifest(opts Options) (*manifest, [][]int, error) {
	man, err := loadManifest(opts.StateDir)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case man == nil || opts.Replace:
		// A fresh plan partitions universe POSITIONS (0..Total-1) —
		// Costs are position-aligned — then maps each position to its
		// global index, which is the identity for a full campaign.
		partition := planPartition(opts.Total, opts.Shards, opts.Costs)
		if opts.Universe != nil {
			// The partition is about to switch from positions to global
			// indices; scatter the position-aligned costs to match, so
			// newManifest's per-shard sums index them the same way.
			opts.Costs = globalCosts(opts)
			for _, shard := range partition {
				for j, pos := range shard {
					shard[j] = opts.Universe[pos]
				}
			}
		}
		man = newManifest(opts, partition)
		for _, pattern := range []string{"shard-*.jsonl", "shard-*.jsonl.gz", "shard-*.spec.jsonl.gz", "shard-*.log"} {
			stale, _ := filepath.Glob(filepath.Join(opts.StateDir, pattern))
			for _, path := range stale {
				opts.FS.Remove(path)
			}
		}
		opts.FS.Remove(PartialPath(opts.StateDir))
	case !opts.Resume:
		return nil, nil, fmt.Errorf("coordinator: %s already holds a campaign manifest; pass Resume to continue it or use a fresh state dir", opts.StateDir)
	default:
		if err := man.compatible(opts); err != nil {
			return nil, nil, err
		}
	}
	man.init()
	indices, err := man.shardIndices()
	if err != nil {
		return nil, nil, err
	}
	for i := range man.Shard {
		if len(indices[i]) == 0 {
			// An empty shard (more shards than records) needs no worker:
			// publish its empty (but valid) gzip stream and mark it done
			// outright. Written unconditionally — truncating any junk a
			// crashed writer or stray edit left behind — because no
			// worker attempt will ever come along to repair this file
			// the way a re-run repairs an invalid non-empty shard.
			if err := opts.FS.WriteFile(shardFile(opts.StateDir, i), emptyGzip(), 0o644); err != nil {
				return nil, nil, fmt.Errorf("coordinator: %w", err)
			}
			man.Shard[i].State = shardDone
			man.Shard[i].Records = 0
			continue
		}
		n, err := validateShardFile(opts.FS, shardFile(opts.StateDir, i), indices[i])
		if err == nil {
			man.Shard[i].State = shardDone
			man.Shard[i].Records = n
			man.Shard[i].LastError = ""
			man.Shard[i].FailClass = ""
		} else {
			// Terminally failed shards of a previous Partial-mode run land
			// here too: resume demotes them to pending like any other
			// incomplete shard and re-runs them. Poison classification
			// starts over (the consecutive-error memory is per-run), so a
			// fixed environment clears a previously poisoned shard.
			man.Shard[i].State = shardPending
			man.Shard[i].Records = 0
		}
	}
	return man, indices, nil
}

func doneRecords(m *manifest) int {
	n := 0
	for _, st := range m.Shard {
		if st.State == shardDone {
			n += st.Records
		}
	}
	return n
}

// worker pulls dispatches until the run closes (success, failure, or
// cancellation): primary shard attempts first, speculative duplicates
// of the predicted-last shard when the pending queue runs dry.
func (c *coord) worker(ctx context.Context) {
	for {
		i, spec, ok := c.nextDispatch(ctx)
		if !ok {
			return
		}
		if spec {
			c.runSpeculative(ctx, i)
		} else {
			c.runShard(ctx, i)
		}
	}
}

// nextDispatch blocks until this worker has something to run. It picks
// the heaviest READY pending shard (LPT at dispatch time, ties toward
// the lower shard; backoff gates make a retried shard invisible until
// its not-before passes), or — with Speculate on and nothing pending —
// a duplicate attempt of the running shard predicted to finish last.
// The second return is true for a speculative dispatch; ok=false means
// the run has no further use for this worker.
func (c *coord) nextDispatch(ctx context.Context) (shard int, speculative, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.fatal != nil || c.closed || ctx.Err() != nil {
			return 0, false, false
		}
		now := time.Now()
		best := -1
		var soonest time.Time
		for j, p := range c.pending {
			if p.notBefore.After(now) {
				if soonest.IsZero() || p.notBefore.Before(soonest) {
					soonest = p.notBefore
				}
				continue
			}
			if best < 0 || c.cost[p.shard] > c.cost[c.pending[best].shard] ||
				(c.cost[p.shard] == c.cost[c.pending[best].shard] && p.shard < c.pending[best].shard) {
				best = j
			}
		}
		if best >= 0 {
			i := c.pending[best].shard
			c.pending = append(c.pending[:best], c.pending[best+1:]...)
			return i, false, true
		}
		if len(c.pending) == 0 && c.opts.Speculate {
			if i, found := c.pickSpeculationLocked(); found {
				c.specTried[i] = true
				return i, true, true
			}
		}
		if !soonest.IsZero() {
			// Every pending shard is gated behind a backoff: sleep this
			// worker until the nearest gate opens (the timer's broadcast
			// wakes the cond), or until some other transition does.
			t := time.AfterFunc(time.Until(soonest)+time.Millisecond, func() {
				c.mu.Lock()
				c.cond.Broadcast()
				c.mu.Unlock()
			})
			c.cond.Wait()
			t.Stop()
			continue
		}
		c.cond.Wait()
	}
}

// runShard performs one primary attempt of shard i: truncate the shard
// file, run the worker under the straggler deadline, validate the
// output, and either complete the shard or classify the failure and
// re-queue it behind a backoff gate (terminally failing it once the
// attempt budget is spent or the failure is classified permanent). The
// attempt's wall time is recorded in the manifest on success — the
// measurements the cost model calibrates from.
func (c *coord) runShard(ctx context.Context, i int) {
	c.mu.Lock()
	if c.man.Shard[i].State == shardDone || c.fatal != nil {
		// A speculative attempt finished the shard while this dispatch
		// was in flight (or the run is over).
		c.mu.Unlock()
		return
	}
	c.man.Shard[i].State = shardRunning
	c.man.Shard[i].Attempts++
	attempt := c.man.Shard[i].Attempts
	c.attempts++
	actx, acancel := context.WithCancel(ctx)
	c.running[i] = &attemptHandle{cancel: acancel}
	// The truncating open shares this critical section with the check
	// that the shard is not done: a speculative duplicate renames its
	// side file over the canonical name and completes the shard under
	// c.mu too, so the open either precedes the rename (this handle
	// detaches harmlessly) or never happens.
	out, err := c.fsys.OpenFile(shardFile(c.opts.StateDir, i), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	saveErr := c.saveManLocked()
	c.mu.Unlock()
	defer acancel()
	if saveErr != nil {
		if err == nil {
			out.Close()
		}
		c.fail(saveErr)
		return
	}

	start := time.Now()
	if err == nil {
		err = c.attemptShard(actx, i, attempt, out)
	}
	// Validation is authoritative, regardless of how the worker exited:
	// a worker may report an error after writing a complete file (e.g.
	// `repro campaign` exits nonzero on a per-shard never-smaller
	// violation that the merged check re-reports, or a deadline fires
	// just after the last record landed). If the expected records are
	// on disk, the shard is done.
	n, verr := validateShardFile(c.fsys, shardFile(c.opts.StateDir, i), c.indices[i])

	c.mu.Lock()
	delete(c.running, i)
	if c.man.Shard[i].State == shardDone || c.fatal != nil {
		// A speculative attempt published first (or the run is over);
		// this attempt's outcome no longer matters.
		c.mu.Unlock()
		return
	}
	if verr == nil {
		if err != nil {
			c.logf("shard %d attempt %d: worker reported %v, but its output validated; accepting", i, attempt, err)
		}
		saveErr := c.completeLocked(i, n, time.Since(start), attempt, "primary")
		c.mu.Unlock()
		if saveErr != nil {
			c.fail(saveErr)
		}
		return
	}
	if err == nil {
		err = fmt.Errorf("output validation: %w", verr)
	}
	if ctx.Err() != nil && !errors.Is(err, context.DeadlineExceeded) {
		// The whole run is shutting down; do not count this against the
		// shard.
		c.mu.Unlock()
		return
	}
	prev := c.lastErr[i]
	c.lastErr[i] = err.Error()
	class := classify(err, prev, attempt)
	c.logf("shard %d attempt %d failed (%s): %v", i, attempt, class, err)
	if class == FailPermanent || attempt >= c.opts.MaxAttempts {
		terr := terminalError(i, attempt, class, err)
		if c.opts.Partial {
			c.failShardLocked(i, attempt, class, terr)
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		c.fail(terr)
		return
	}
	// Transient failures back off before re-dispatch; stragglers re-queue
	// immediately (the cache-replayed retry is forward progress).
	var delay time.Duration
	if class != FailStraggler {
		delay = retryDelay(c.opts.RetryBase, c.opts.RetryMax, c.opts.Seed, i, attempt)
	}
	c.man.Shard[i].State = shardPending
	saveErr = c.saveManLocked()
	c.pending = append(c.pending, pendingShard{shard: i, notBefore: time.Now().Add(delay)})
	c.cond.Broadcast()
	c.mu.Unlock()
	if saveErr != nil {
		c.fail(saveErr)
	}
}

// completeLocked marks shard i done after a validated attempt (primary
// or speculative) and cancels the racing duplicate if one is in
// flight. Caller holds c.mu; the returned error is a failed manifest
// save the caller must escalate via c.fail.
func (c *coord) completeLocked(i, n int, elapsed time.Duration, attempt int, how string) error {
	c.man.Shard[i].State = shardDone
	c.man.Shard[i].Records = n
	c.man.Shard[i].ElapsedMS = elapsed.Milliseconds()
	c.man.Shard[i].LastError = ""
	c.man.Shard[i].FailClass = ""
	if h := c.running[i]; h != nil {
		h.cancel()
		delete(c.running, i)
	}
	if h := c.specs[i]; h != nil {
		h.cancel()
	}
	for j, p := range c.pending {
		// A speculative win can land while the beaten primary's retry
		// already sits in the queue; the shard is done, drop it.
		if p.shard == i {
			c.pending = append(c.pending[:j], c.pending[j+1:]...)
			break
		}
	}
	c.remaining--
	if c.remaining == 0 {
		c.closed = true
	}
	saveErr := c.saveManLocked()
	c.cond.Broadcast()
	c.logf("shard %d/%d done: %d records in %v (%s attempt %d, cost %.3g)",
		i, c.opts.Shards, n, elapsed.Round(time.Millisecond), how, attempt, c.cost[i])
	return saveErr
}

// attemptShard runs one worker attempt with its log and deadline wired
// up, writing the gzip record stream to out (the canonical shard file
// for a primary attempt, a side file for a speculative one) and closing
// it. The worker writes plain JSONL; the coordinator compresses it on
// the way to disk, so exec and in-process workers alike produce gzip
// shard streams without knowing it. The worker may exit with an error
// after writing a complete file; the caller decides by validating the
// output.
func (c *coord) attemptShard(ctx context.Context, i, attempt int, out chaos.File) error {
	actx := ctx
	if c.opts.ShardTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.opts.ShardTimeout)
		defer cancel()
	}
	logf, err := c.fsys.OpenFile(shardLog(c.opts.StateDir, i), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		out.Close()
		return err
	}
	fmt.Fprintf(logf, "--- shard %d attempt %d\n", i, attempt)
	gz := gzip.NewWriter(out)
	err = c.opts.Run(actx, Task{Index: i, Count: c.opts.Shards, Indices: c.indices[i], Attempt: attempt},
		flushingWriter{gz}, logf)
	if actx.Err() != nil && ctx.Err() == nil {
		// The shard's own deadline fired (not a run-wide shutdown):
		// report the straggler explicitly.
		err = fmt.Errorf("straggler killed after %v: %w", c.opts.ShardTimeout, context.DeadlineExceeded)
	}
	// Close order matters: the gzip trailer must land before the file
	// closes, or a clean attempt reads back as truncated.
	if cerr := gz.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if cerr := out.Close(); err == nil && cerr != nil {
		err = cerr
	}
	logf.Close()
	return err
}

// flushingWriter flushes the gzip stream after every worker write, so
// complete deflate blocks reach the file as the shard grows and the
// follow tailer can decompress the prefix of a live shard instead of
// waiting for the trailer. The flush costs a little compression ratio;
// shard streams are line-oriented JSON and still compress well.
type flushingWriter struct{ gz *gzip.Writer }

func (w flushingWriter) Write(p []byte) (int, error) {
	n, err := w.gz.Write(p)
	if err != nil {
		return n, err
	}
	return n, w.gz.Flush()
}

// emptyGzip returns a complete zero-record gzip stream — the published
// form of an empty shard.
func emptyGzip() []byte {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Close()
	return buf.Bytes()
}
