// Command repro regenerates every table and figure of "Attack-Resilient
// Sensor Fusion" (DATE 2014).
//
// Usage:
//
//	repro table1 [-step 1] [-astep 1] [-rows 1,2,...] [-parallel N] [-seed S] [-format F] [-out FILE] [-cache DIR]
//	repro table2 [-steps 1000] [-seed 2014] [-parallel N] [-format F] [-out FILE]
//	repro figures [-fig N] [-parallel N] [-seed S] [-format F] [-out FILE]
//	repro sweep [-steps 500] [-seed 1] [-parallel N]
//	repro campaign [-k 0] [-step 1] [-seed 1] [-parallel N] [-batch B] [-format F] [-out FILE] [-shard i/m|SET] [-cache DIR] [-compress] [-rotate SIZE] [-cpuprofile FILE] [-memprofile FILE]
//	repro scenarios [-suite S1,S2,...] [-steps 100] [-seed 2014] [-parallel N] [-batch B] [-format F] [-out FILE] [-shard i/m|SET] [-cache DIR] [-fuzz N] [-fuzz-break] [-cpuprofile FILE] [-memprofile FILE]
//	repro strategies [-schedule K] [-parallel N] [-format F] [-out FILE]
//	repro merge [-format F] [-out FILE] [-expect N] [-window W] [-compress] [-rotate SIZE] shard1.jsonl[.gz] [shard2.jsonl ...]
//	repro coordinate -state DIR [-workers N] [-shards M] [-resume] [-follow] [-deadline D] [-balance] [-speculate] [-partial] [-window W] [-k 0] [-step 1] [-seed 1] [-lengths L1,L2,...] [-format F] [-out FILE] [-compress] [-rotate SIZE] [-cpuprofile FILE] [-memprofile FILE]
//	repro coordinate -state DIR -watch [-interval D]
//	repro update -state DIR [spec flags: -k -step -seed -lengths] [-workers N] [-format F] [-out FILE]
//	repro doctor [-state DIR] [-cache DIR]
//
// table1 prints the schedule comparison (expected fusion interval length,
// Ascending vs Descending) for the paper's eight configurations; table2
// the LandShark case-study violation percentages for the three schedules;
// figures the ASCII reproductions of Figs. 1-5 with their checked claims;
// sweep an extended schedule comparison including TrustedLast; campaign
// the full enumerated Section IV-A simulation campaign (every widths
// multiset and fa for n=3..5).
//
// Every subcommand takes -parallel N (worker goroutines for the campaign
// engine, default all cores) and -seed S (root seed for everything that
// draws randomness; the enumeration-based tables are seed-independent).
// Output is byte-identical for every -parallel value at a fixed seed:
// parallelism changes wall-clock time, never results.
//
// # Streaming records, sharding, merging
//
// With -format json|csv (or -out FILE), the experiment generators stream
// typed records through the results pipeline instead of printing the
// human report: one JSONL/CSV record per configuration, emitted in
// enumeration order as engine tasks complete. -shard i/m runs the i-th
// of m deterministic partitions of the campaign enumeration (0-based);
// records keep their global index, so
//
//	repro campaign -shard 0/3 -format json -out s0.jsonl
//	repro campaign -shard 1/3 -format json -out s1.jsonl
//	repro campaign -shard 2/3 -format json -out s2.jsonl
//	repro merge -format json -out all.jsonl s0.jsonl s1.jsonl s2.jsonl
//
// produces an all.jsonl byte-identical to the unsharded run, with the
// paper's never-smaller claim re-checked over the merged set. -cache DIR
// memoizes per-configuration results under a digest of (config, options,
// seed): a warm re-run skips every simulation. -shard also accepts an
// explicit index set ("0-5,9") — the form the cost-balancing
// coordinator dispatches. -batch B evaluates B configurations per
// engine task (same bytes, less per-task overhead).
//
// merge streams its inputs: files are read incrementally (gzip
// transparently) through a bounded reorder window (-window W records;
// overflow spills to temp files), so campaigns larger than memory merge
// in O(W) space, and a corrupt record fails immediately with its file
// and line. -compress gzips record output; -rotate SIZE splits it into
// bounded files out-0001.jsonl[.gz], ... whose concatenation is the
// exact unrotated stream.
//
// # Coordinated runs
//
// coordinate supervises the whole shard/merge workflow in one resumable
// command: it estimates each configuration's cost, packs cost-BALANCED
// shards (-balance, default on; -shards M slices), re-execs itself as
// -workers N `repro campaign -shard SET` worker processes sharing one
// cache under -state DIR, tracks per-shard progress (index sets, cost,
// wall time) in a crash-safe manifest there, dispatches shards from a
// dynamic heaviest-first queue so the straggler tail stays short, kills
// and reassigns stragglers that exceed -deadline, and streams the shard
// files through the bounded -window merge into output byte-identical to
// the unsharded run. Kill the coordinator (or its workers) at any point
// and re-run with -resume: completed shards are served from disk,
// completed configurations from the cache, and no simulation ever runs
// twice; a state dir written in an older format is refused (remove its
// manifest.json and rerun — the cache is kept). -follow streams merged
// records while shards are still
// running. -watch renders a read-only progress view from the manifest
// (no lock taken), with a remaining-work estimate calibrated from the
// recorded shard timings (or "eta: warming up" before any shard has
// both a cost and a wall time). See docs/ARCHITECTURE.md for a worked
// walkthrough.
//
// The coordinator self-heals around failures: attempt failures are
// classified (transient I/O, straggler, permanently poisoned), transient
// retries back off exponentially with deterministic seeded jitter, and
// two opt-in knobs go further. -speculate lets idle workers duplicate
// the shard predicted to finish last (first validated attempt wins; the
// bytes never change). -partial degrades gracefully: the
// completed shards merge, partial.json records what failed and why
// (doctor reports it as "partial-result"), and a later -resume finishes
// the campaign.
//
// # Incremental updates and state-dir health
//
// A completed coordinate run persists a spec digest manifest
// (spec.json) next to the progress manifest: one content digest per
// configuration of the (grid, options, seed) spec. update diffs the
// digests of an EDITED spec (say, a new -lengths grid) against that
// file, re-runs only the invalidated and new configuration indices
// through the coordinator — sharing the campaign cache, so everything
// unchanged is a hit — and then replays the full new spec from the
// cache into the sink, byte-identical to a from-scratch run of the
// edited spec. doctor validates a state directory and/or result cache
// (stale or foreign pid locks, torn manifests, older state such as a
// manifest of another format version, orphaned or corrupt shard files,
// corrupt cache entries) and prints one copy-pasteable fix command per
// finding, modifying nothing itself.
package main

import (
	"bufio"
	"compress/gzip"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"sensorfusion"
	"sensorfusion/internal/attack"
	"sensorfusion/internal/cache"
	"sensorfusion/internal/campaign"
	"sensorfusion/internal/chaos"
	"sensorfusion/internal/coordinator"
	"sensorfusion/internal/experiments"
	"sensorfusion/internal/platoon"
	"sensorfusion/internal/render"
	"sensorfusion/internal/results"
	"sensorfusion/internal/schedule"
	"sensorfusion/internal/sensor"
	"sensorfusion/internal/sim"
	"sensorfusion/internal/trace"
	"sensorfusion/internal/verdict"
)

// sinkFlags are the streaming-output knobs shared by the record-emitting
// subcommands. The default (-format table, no -out) keeps the legacy
// human report; any other combination switches the subcommand into
// record mode, where results stream through a results.Sink.
type sinkFlags struct {
	format *string
	out    *string
	// compress and rotate are only registered by addStreamSinkFlags
	// (campaign, merge, coordinate — the subcommands whose streams can
	// outgrow memory and disks); nil elsewhere.
	compress *bool
	rotate   *string
}

func addSinkFlags(fs *flag.FlagSet) sinkFlags {
	return sinkFlags{
		format: fs.String("format", "table", "output format: table|json|csv (json/csv stream typed records)"),
		out:    fs.String("out", "", "write records to FILE instead of stdout (implies record mode)"),
	}
}

// addStreamSinkFlags additionally registers the large-stream knobs:
// gzip compression and size-based file rotation.
func addStreamSinkFlags(fs *flag.FlagSet) sinkFlags {
	sf := addSinkFlags(fs)
	sf.compress = fs.Bool("compress", false, "gzip the record output (the -out name gains .gz)")
	sf.rotate = fs.String("rotate", "", "rotate -out across files of at most SIZE (e.g. 64M) each, named out-0001.jsonl[.gz], ...; requires -format json and -out")
	return sf
}

// recordMode reports whether the subcommand should stream records
// instead of printing its legacy human report.
func (s sinkFlags) recordMode() bool { return *s.format != "table" || *s.out != "" }

func (s sinkFlags) compressOn() bool { return s.compress != nil && *s.compress }

// rotateBytes parses the -rotate size ("64M", "1G", "100000"); 0 means
// rotation is off.
func (s sinkFlags) rotateBytes() (int64, error) {
	if s.rotate == nil || *s.rotate == "" {
		return 0, nil
	}
	return parseSize(*s.rotate)
}

// parseSize parses a byte count with an optional K/M/G suffix.
func parseSize(spec string) (int64, error) {
	mult := int64(1)
	num := spec
	switch {
	case strings.HasSuffix(spec, "K"), strings.HasSuffix(spec, "k"):
		mult, num = 1<<10, spec[:len(spec)-1]
	case strings.HasSuffix(spec, "M"), strings.HasSuffix(spec, "m"):
		mult, num = 1<<20, spec[:len(spec)-1]
	case strings.HasSuffix(spec, "G"), strings.HasSuffix(spec, "g"):
		mult, num = 1<<30, spec[:len(spec)-1]
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil || n <= 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("bad size %q (want e.g. 500000, 64M, 1G)", spec)
	}
	return n * mult, nil
}

// streamOut runs gen against the configured sink and finalizes the
// stream: flush the sink, then publish the output file. The format is
// validated before anything is touched, and -out is written to a temp
// file in the same directory and renamed into place only on success —
// a -format typo, a mid-run task failure, or a kill can never destroy a
// previously good result file or leave a truncated one behind under
// the final name. Prose must go to stderr while the sink owns stdout.
func (s sinkFlags) streamOut(gen func(sink results.Sink) error) error {
	switch *s.format {
	case "json", "csv", "table":
	default:
		return fmt.Errorf("unknown format %q (want table, json, or csv)", *s.format)
	}
	rotate, err := s.rotateBytes()
	if err != nil {
		return err
	}
	if rotate > 0 {
		// Rotation writes a SET of files, so the single-file atomic
		// temp+rename publish cannot apply: members are published as
		// they fill, and a killed run leaves complete members plus one
		// truncated tail — the same crash semantics as a killed plain
		// stream, recoverable the same way.
		if *s.format != "json" || *s.out == "" {
			return fmt.Errorf("-rotate requires -format json and -out (rotated sets are JSONL file sequences)")
		}
		sink := results.NewRotatingJSONL(resolveOutPath(*s.out),
			results.RotateOptions{MaxBytes: rotate, Compress: s.compressOn()})
		if err := gen(sink); err != nil {
			return err
		}
		if err := sink.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d rotated file(s), %s-0001%s\n",
			len(sink.Files()), strings.TrimSuffix(*s.out, filepath.Ext(*s.out)), filepath.Ext(*s.out))
		return nil
	}
	var w io.Writer = os.Stdout
	var tmp *os.File    // temp file to rename into place, when publishing atomically
	var direct *os.File // non-regular destination written in place (e.g. /dev/null, a FIFO)
	var dest string
	if *s.out != "" {
		// Renaming over a symlink would replace the LINK with a regular
		// file (severing it and stranding the target); publish to the
		// resolved destination instead.
		dest = resolveOutPath(*s.out)
		if info, err := os.Stat(dest); err == nil && !info.Mode().IsRegular() {
			// Renaming over a device node or FIFO would replace it with
			// a regular file (catastrophic for /dev/null); write through
			// it instead — there is no previous content to protect.
			// Checked BEFORE any .gz renaming so -compress to /dev/null
			// or a FIFO still writes through the special file rather
			// than creating a regular "<dest>.gz" beside it.
			f, err := os.OpenFile(dest, os.O_WRONLY, 0)
			if err != nil {
				return err
			}
			direct = f
			w = f
		} else {
			if s.compressOn() && !strings.HasSuffix(dest, ".gz") {
				dest += ".gz"
			}
			f, err := os.CreateTemp(filepath.Dir(dest), filepath.Base(dest)+".tmp*")
			if err != nil {
				return err
			}
			// CreateTemp's 0600 would survive the rename and make shard
			// files unreadable to the merging user; match os.Create's
			// conventional mode instead.
			if err := f.Chmod(0o644); err != nil {
				f.Close()
				os.Remove(f.Name())
				return err
			}
			tmp = f
			w = f
		}
	}
	discard := func(err error) error {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
		if direct != nil {
			direct.Close()
		}
		return err
	}
	// One write(2) per record would dominate a large campaign; buffer
	// file output and flush before publishing.
	var buffered *bufio.Writer
	if *s.out != "" {
		buffered = bufio.NewWriter(w)
		w = buffered
	}
	var gz *gzip.Writer
	if s.compressOn() {
		gz = gzip.NewWriter(w)
		w = gz
	}
	var sink results.Sink
	switch *s.format {
	case "json":
		sink = results.NewJSONL(w)
	case "csv":
		sink = results.NewCSV(w)
	default:
		sink = results.NewTable(w)
	}
	if err := gen(sink); err != nil {
		return discard(err)
	}
	if err := sink.Flush(); err != nil {
		return discard(err)
	}
	if gz != nil {
		// Close writes the gzip trailer; without it the output is
		// truncated mid-member.
		if err := gz.Close(); err != nil {
			return discard(err)
		}
	}
	if buffered != nil {
		if err := buffered.Flush(); err != nil {
			return discard(err)
		}
	}
	if direct != nil {
		return direct.Close()
	}
	if tmp != nil {
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return err
		}
		if err := os.Rename(tmp.Name(), dest); err != nil {
			os.Remove(tmp.Name())
			return err
		}
	}
	return nil
}

// resolveOutPath follows symlinks (bounded) so the atomic publish
// renames over the final target, never over a link.
func resolveOutPath(path string) string {
	for hops := 0; hops < 16; hops++ {
		info, err := os.Lstat(path)
		if err != nil || info.Mode()&os.ModeSymlink == 0 {
			return path
		}
		target, err := os.Readlink(path)
		if err != nil {
			return path
		}
		if !filepath.IsAbs(target) {
			target = filepath.Join(filepath.Dir(path), target)
		}
		path = target
	}
	return path
}

// openCache opens the content-addressed result store when -cache DIR was
// given.
func openCache(dir string) (*cache.Store, error) {
	if dir == "" {
		return nil, nil
	}
	return cache.Open(dir)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "table1":
		err = runTable1(os.Args[2:])
	case "table2":
		err = runTable2(os.Args[2:])
	case "figures":
		err = runFigures(os.Args[2:])
	case "sweep":
		err = runSweep(os.Args[2:])
	case "campaign":
		err = runCampaign(os.Args[2:])
	case "scenarios":
		err = runScenarios(os.Args[2:])
	case "trace":
		err = runTrace(os.Args[2:])
	case "strategies":
		err = runStrategies(os.Args[2:])
	case "merge":
		err = runMerge(os.Args[2:])
	case "coordinate":
		err = runCoordinate(os.Args[2:])
	case "update":
		err = runUpdate(os.Args[2:])
	case "doctor":
		err = runDoctor(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "repro: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: repro <table1|table2|figures|sweep|campaign|scenarios|trace|strategies|merge|coordinate|update|doctor> [flags]

  table1    Table I: E|S| under Ascending vs Descending, 8 configurations
  table2    Table II: LandShark case study violation percentages
  figures   Figs. 1-5: ASCII reproductions with checked claims
  sweep     extended schedule comparison on the LandShark suite
  campaign  the full enumerated Section IV-A simulation campaign
            (-k N samples N configurations instead)
  scenarios case-study scenario harness: streams fault-injection,
            platoon, Byzantine-consensus, and tracking-under-attack
            scenarios through declarative paper-claim verdicts
            (soundness, stealth, precision bounds); any FAIL exits
            non-zero; -fuzz N additionally searches N random fusion
            configurations for claim violations, shrinking any
            counterexample to a minimal reproducer (-fuzz-break arms
            the self-test proving the FAIL path stays live)
  trace     record an attacked scenario as JSONL and post-mortem it
  strategies  attacker-strategy ablation on one configuration
  merge     stream shard record files (gzip read transparently) through
            a bounded -window reorder into the final report, re-running
            the never-smaller claim check on every record; corrupt
            records fail fast with file:line; -expect N fails the merge
            unless exactly N records arrived (a truncated tail is
            otherwise undetectable)
  coordinate  resumable multi-process campaign: estimate per-config
            costs, pack cost-balanced shards (-balance, default on),
            re-exec -workers N campaign worker processes sharing one
            cache under -state DIR, track progress + shard timings in a
            crash-safe manifest, dispatch a heaviest-first dynamic
            queue, kill/reassign stragglers past -deadline, stream the
            shards through the bounded -window merge byte-identically
            to the unsharded run; -resume continues a killed run with
            zero re-simulation of cached work (older state is refused:
            rm its manifest.json and rerun, the cache is kept), -follow
            streams merged records as shards progress,
            -watch renders lock-free progress from the manifest;
            failures are classified (transient/straggler/poisoned) with
            deterministic seeded retry backoff, -speculate duplicates
            the predicted-last shard onto idle workers, -partial merges
            what completed and records the rest in partial.json for a
            later -resume to finish
  update    incremental recompute of a completed coordinate campaign
            after a spec edit (-lengths, -step, -seed, -k): diff the
            new spec's per-config digests against the state dir's
            spec.json, re-run ONLY invalidated/new indices through the
            coordinator (cache-shared), then replay the full new spec
            from the cache — byte-identical to a from-scratch run
  doctor    validate -state and/or -cache directories: stale/foreign
            locks, torn manifests, older state (remove it and rerun;
            STATE/cache is kept), orphaned/corrupt shard files, partial
            results awaiting -resume, stale speculation/spill
            leftovers, corrupt cache entries; one copy-pasteable fix
            command per finding, nothing modified

large streams (campaign, merge, coordinate, update):
  -compress     gzip record output (-out gains .gz)
  -rotate SIZE  split -format json -out into files of at most SIZE
                (64M, 1G, ...) each: out-0001.jsonl[.gz], ...; their
                concatenation is byte-identical to the unrotated stream
  -window W     merge/coordinate: reorder window in records; overflow
                spills to disk so merge memory is O(W), not campaign size

every subcommand accepts:
  -parallel N   campaign-engine worker goroutines (default: all cores)
  -seed S       root seed for everything that draws randomness (config
                sampling, Monte Carlo batches, trace noise); the
                enumeration-based tables are seed-independent

streaming results pipeline (table1, table2, figures, campaign,
scenarios, strategies, merge):
  -format F     table (default: human report), or json/csv to stream
                typed records in enumeration order
  -out FILE     write records to FILE (implies record mode)
  -shard i/m    campaign/scenarios: run the i-th of m deterministic
                partitions (0-based); records keep global indices
  -cache DIR    table1/campaign/scenarios: content-addressed result
                store keyed by (config, options, seed) — warm re-runs
                skip simulation

profiling (campaign, coordinate, scenarios):
  -cpuprofile FILE  write a CPU profile (pprof format)
  -memprofile FILE  write a heap profile at exit

shard a campaign across three processes, then merge:
  repro campaign -shard 0/3 -format json -out s0.jsonl
  repro campaign -shard 1/3 -format json -out s1.jsonl
  repro campaign -shard 2/3 -format json -out s2.jsonl
  repro merge -format table s0.jsonl s1.jsonl s2.jsonl

for a fixed seed the streamed records are byte-identical for every
-parallel value, and merged shards are byte-identical to the unsharded
run.`)
}

func runTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	step := fs.Float64("step", 1, "measurement discretization step")
	astep := fs.Float64("astep", 1, "attacker placement discretization step")
	rowsFlag := fs.String("rows", "", "comma-separated 1-based row numbers (default: all)")
	parallel := fs.Int("parallel", 0, "engine workers (0 = all cores)")
	seed := fs.Int64("seed", 0, "root seed (kept for uniformity; this enumeration is seed-independent)")
	cacheDir := fs.String("cache", "", "content-addressed result store directory (reused across runs)")
	sf := addSinkFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfgs := experiments.DefaultTable1Configs()
	if *rowsFlag != "" {
		var selected []experiments.Table1Config
		for _, tok := range strings.Split(*rowsFlag, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || k < 1 || k > len(cfgs) {
				return fmt.Errorf("bad row %q", tok)
			}
			selected = append(selected, cfgs[k-1])
		}
		cfgs = selected
	}
	store, err := openCache(*cacheDir)
	if err != nil {
		return err
	}
	opts := experiments.Table1Options{
		MeasureStep: *step, AttackerStep: *astep, Parallel: *parallel, Seed: *seed,
		Cache: store,
	}
	if sf.recordMode() {
		return sf.streamOut(func(sink results.Sink) error {
			return experiments.Table1Records(cfgs, opts, sink)
		})
	}
	start := time.Now()
	rows, err := experiments.Table1(cfgs, opts)
	if err != nil {
		return err
	}
	fmt.Println("Table I — comparison of two sensor communication schedules")
	fmt.Printf("(measurement step %g, attacker step %g, attacker: optimal, targets: %s)\n\n",
		*step, *astep, "fa most precise sensors")
	fmt.Print(experiments.Table1Report(rows))
	fmt.Printf("\nelapsed: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	steps := fs.Int("steps", 1000, "control periods per schedule (3 vehicle-rounds each)")
	seed := fs.Int64("seed", 2014, "simulation seed")
	parallel := fs.Int("parallel", 0, "engine workers (0 = all cores)")
	sf := addSinkFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := experiments.Table2Options{Steps: *steps, Seed: *seed, Parallel: *parallel}
	if sf.recordMode() {
		return sf.streamOut(func(sink results.Sink) error {
			return experiments.Table2Records(opts, sink)
		})
	}
	start := time.Now()
	rows, err := experiments.Table2(opts)
	if err != nil {
		return err
	}
	fmt.Println("Table II — case study results for each of the three schedules")
	fmt.Printf("(3 LandSharks, v=10 mph, delta=0.5 mph, %d rounds per schedule)\n\n", rows[0].Rounds)
	fmt.Print(experiments.Table2Report(rows))
	fmt.Printf("\nelapsed: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runFigures(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	figN := fs.Int("fig", 0, "figure number 1-5 (default: all)")
	parallel := fs.Int("parallel", 0, "engine workers (0 = all cores)")
	fs.Int64("seed", 0, "accepted for uniformity; figure generation is deterministic")
	sf := addSinkFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if sf.recordMode() {
		var failed []string
		if err := sf.streamOut(func(sink results.Sink) error {
			var err error
			failed, err = experiments.FiguresRecords(*parallel, sink)
			return err
		}); err != nil {
			return err
		}
		if len(failed) > 0 {
			return fmt.Errorf("%s: claims failed", strings.Join(failed, ", "))
		}
		return nil
	}
	figs, err := experiments.FiguresParallel(*parallel)
	if err != nil {
		return err
	}
	for k, f := range figs {
		if *figN != 0 && *figN != k+1 {
			continue
		}
		fmt.Println(f.String())
		if !f.AllClaimsHold() {
			return fmt.Errorf("%s: claims failed", f.ID)
		}
	}
	return nil
}

func runCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	k := fs.Int("k", 0, "sample this many configurations (0 = run the full enumeration)")
	seed := fs.Int64("seed", 1, "root seed (per-task seed tree and sampling)")
	step := fs.Float64("step", 1, "measurement and attacker discretization step")
	parallel := fs.Int("parallel", 0, "engine workers (0 = all cores)")
	batch := fs.Int("batch", 1, "configurations per engine task (amortizes per-task overhead; output is byte-identical for every value)")
	shardFlag := fs.String("shard", "", "run one deterministic partition: i/m (0-based residue class) or an explicit index set like 0-5,9")
	cacheDir := fs.String("cache", "", "content-addressed result store directory (reused across runs and shards)")
	lengthsFlag := fs.String("lengths", "", "comma-separated interval-length grid replacing the paper's 5,8,11,14,17,20 (strictly increasing)")
	pf := addProfileFlags(fs)
	sf := addStreamSinkFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	defer pf.start()()
	shard, err := experiments.ParseShard(*shardFlag)
	if err != nil {
		return err
	}
	lengths, err := parseLengthsFlag(*lengthsFlag)
	if err != nil {
		return err
	}
	store, err := openCache(*cacheDir)
	if err != nil {
		return err
	}
	opts := experiments.CampaignOptions{
		Table1Options: experiments.Table1Options{
			MeasureStep: *step, AttackerStep: *step, Parallel: *parallel, Seed: *seed,
			Cache: store,
			// Progress goes to stderr so stdout stays byte-identical
			// across -parallel values.
			Progress: func(done, total int) {
				fmt.Fprintf(os.Stderr, "campaign: %d/%d configurations done\n", done, total)
			},
		},
		SampleK: *k,
		Shard:   shard,
		Lengths: lengths,
	}
	opts.Batch = *batch
	gridLengths := lengths
	if gridLengths == nil {
		gridLengths = experiments.SweepLengths()
	}
	total := len(experiments.EnumerateSweepConfigsFrom(gridLengths))
	running, err := opts.PlannedCount()
	if err != nil {
		return err
	}
	if sf.recordMode() {
		// The sink owns stdout (unless -out): all prose goes to stderr.
		fmt.Fprintf(os.Stderr, "campaign: %d total configurations, running %d (shard %s)\n",
			total, running, shardDesc(shard))
		var violations []string
		if err := sf.streamOut(func(sink results.Sink) error {
			var err error
			violations, err = experiments.StreamCampaign(opts, sink)
			return err
		}); err != nil {
			return err
		}
		reportCacheUse(store)
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "VIOLATION: "+v)
			}
			return fmt.Errorf("%d never-smaller violations", len(violations))
		}
		return nil
	}
	fmt.Printf("Section IV-A campaign: %d total configurations, running %d (shard %s)\n\n",
		total, running, shardDesc(shard))
	if running == total {
		fmt.Fprintln(os.Stderr, "campaign: full enumeration — this can take a long time; -k N runs a sample, -shard i/m a partition")
	}
	start := time.Now()
	res, err := experiments.RunCampaign(opts)
	if err != nil {
		return err
	}
	fmt.Print(experiments.SweepReport(res))
	fmt.Printf("\nelapsed: %v\n", time.Since(start).Round(time.Millisecond))
	reportCacheUse(store)
	if len(res.Violations) > 0 {
		return fmt.Errorf("%d never-smaller violations", len(res.Violations))
	}
	return nil
}

func runScenarios(args []string) error {
	fs := flag.NewFlagSet("scenarios", flag.ExitOnError)
	suiteFlag := fs.String("suite", "", "comma-separated scenario suites (faults,platoon,consensus,track; default: all); filtering keeps global record indices and per-scenario seeds")
	steps := fs.Int("steps", 100, "simulated rounds / control periods per scenario")
	seed := fs.Int64("seed", 2014, "root seed for the per-scenario seed tree and the fuzzer")
	parallel := fs.Int("parallel", 0, "engine workers (0 = all cores)")
	batch := fs.Int("batch", 1, "scenarios per engine task (output is byte-identical for every value)")
	shardFlag := fs.String("shard", "", "run one deterministic partition: i/m (0-based residue class) or an explicit index set like 0-5,9")
	cacheDir := fs.String("cache", "", "content-addressed result store directory (reused across runs and shards)")
	fuzzN := fs.Int("fuzz", 0, "additionally check N random fusion configurations against the paper's claims, shrinking any counterexample to a minimal reproducer")
	fuzzBreak := fs.Bool("fuzz-break", false, "fuzzer self-test: inject an undeclared over-budget corruption into every fuzzed configuration — the run must FAIL with a shrunk reproducer")
	pf := addProfileFlags(fs)
	sf := addSinkFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	defer pf.start()()
	var suites []string
	if *suiteFlag != "" {
		for _, tok := range strings.Split(*suiteFlag, ",") {
			suites = append(suites, strings.TrimSpace(tok))
		}
	}
	shard, err := experiments.ParseShard(*shardFlag)
	if err != nil {
		return err
	}
	store, err := openCache(*cacheDir)
	if err != nil {
		return err
	}
	opts := experiments.ScenarioOptions{
		Suites: suites, Steps: *steps, Parallel: *parallel, Seed: *seed,
		Cache: store, Shard: shard,
	}
	opts.Batch = *batch
	var verdicts []verdict.Verdict
	if sf.recordMode() {
		// Suites emit different metric sets, so the flat table/csv record
		// forms only make sense for a homogeneous stream.
		if *sf.format != "json" && len(suites) != 1 {
			return fmt.Errorf("-format %s needs a single -suite (suites emit different metric sets); use -format json for the mixed stream", *sf.format)
		}
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "scenarios: %d/%d done\n", done, total)
		}
		if err := sf.streamOut(func(sink results.Sink) error {
			ev := experiments.NewScenarioEvaluator(sink)
			if err := experiments.StreamScenarios(opts, ev); err != nil {
				return err
			}
			verdicts = ev.Verdicts()
			return nil
		}); err != nil {
			return err
		}
	} else {
		start := time.Now()
		vs, err := experiments.RunScenarios(opts, nil)
		if err != nil {
			return err
		}
		verdicts = vs
		defer func() {
			fmt.Printf("\nelapsed: %v\n", time.Since(start).Round(time.Millisecond))
		}()
	}
	if *fuzzN > 0 {
		res := verdict.Fuzz(verdict.FuzzOptions{N: *fuzzN, Seed: *seed, Break: *fuzzBreak})
		verdicts = append(verdicts, res.Verdicts...)
	}
	// The verdict report is prose: stdout in table mode, stderr while a
	// record sink owns stdout.
	report := os.Stdout
	if sf.recordMode() {
		report = os.Stderr
	}
	fmt.Fprintln(report, verdict.Report(verdicts))
	fmt.Fprintln(report, verdict.Summary(verdicts))
	reportCacheUse(store)
	if _, fail, _ := verdict.Counts(verdicts); fail > 0 {
		return fmt.Errorf("%d FAIL verdicts", fail)
	}
	if *fuzzBreak && *fuzzN > 0 {
		return errors.New("fuzz-break self-test produced no FAIL verdicts")
	}
	return nil
}

// parseLengthsFlag parses the -lengths grid ("" = the paper's default
// grid, signalled as nil so params fingerprints stay resume-compatible).
func parseLengthsFlag(spec string) ([]float64, error) {
	if spec == "" {
		return nil, nil
	}
	return experiments.ParseLengths(spec)
}

func shardDesc(s experiments.ShardSpec) string {
	if !s.Enabled() {
		return "none"
	}
	return s.String()
}

// profileFlags carries the optional pprof outputs shared by the heavy
// subcommands (campaign, coordinate, scenarios). Profiles are diagnostics: a
// failure to write one is reported on stderr but never fails the run.
type profileFlags struct {
	cpu, mem *string
}

func addProfileFlags(fs *flag.FlagSet) *profileFlags {
	p := &profileFlags{}
	p.cpu = fs.String("cpuprofile", "", "write a CPU profile to FILE (pprof format; analyze with go tool pprof)")
	p.mem = fs.String("memprofile", "", "write a heap profile to FILE at exit (pprof format)")
	return p
}

// start begins CPU profiling when requested and returns a stop function
// that finishes both profiles; defer it on every exit path.
func (p *profileFlags) start() func() {
	var cpuFile *os.File
	if *p.cpu != "" {
		f, err := os.Create(*p.cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
		} else if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			f.Close()
		} else {
			cpuFile = f
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			}
		}
		if *p.mem == "" {
			return
		}
		f, err := os.Create(*p.mem)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			return
		}
		runtime.GC() // materialize up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		}
	}
}

func reportCacheUse(store *cache.Store) {
	if store == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "cache %s: %d hits, %d misses\n", store.Dir(), store.Hits(), store.Misses())
}

// runMerge combines shard record files (JSONL, gzipped when named
// *.gz) into the final report. The files are STREAMED — read
// incrementally and round-robin through a bounded reorder window that
// spills overflow to temporary files — so a merge of shards larger
// than memory reassembles into the exact bytes of the unsharded
// stream while holding only O(-window) records. A corrupt mid-file
// record fails immediately with its file and line, before anything
// else is buffered. The paper's never-smaller claim is re-checked on
// every record as it passes, not per shard. Interior gaps and
// duplicates always fail; a missing TAIL (truncated last shard) is
// only detectable against an expected count, so pass -expect N (e.g.
// 686 for the full campaign) whenever the total is known.
func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	expect := fs.Int("expect", 0, "expected total record count; fail the merge on any other total (0 = skip)")
	window := fs.Int("window", 4096, "reorder window in records; out-of-window records spill to temp files (0 = unbounded, all in memory)")
	fs.Int("parallel", 0, "accepted for uniformity; merging is sequential")
	fs.Int64("seed", 0, "accepted for uniformity; merging draws no randomness")
	sf := addStreamSinkFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("merge: no shard files given (want: repro merge s0.jsonl s1.jsonl ...)")
	}
	checker := &experiments.NeverSmallerSink{}
	var stats results.MergeStats
	if err := sf.streamOut(func(sink results.Sink) error {
		checker.Next = sink
		var err error
		stats, err = results.MergeFiles(chaos.OS, files, checker, *expect, *window, "")
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "merge: %d records from %d files (%d spilled past the %d-record window); never-smaller check: %d violations\n",
		stats.Records, stats.Files, stats.Spilled, *window, len(checker.Violations))
	if len(checker.Violations) > 0 {
		for _, v := range checker.Violations {
			fmt.Fprintln(os.Stderr, "VIOLATION: "+v)
		}
		return fmt.Errorf("%d never-smaller violations in merged set", len(checker.Violations))
	}
	return nil
}

// runCoordinate supervises a resumable sharded campaign through the
// facade: shard dispatch to re-exec'd worker processes, crash-safe
// manifest, shared cache, straggler reassignment, ordered merge. The
// merged stream goes through the usual sink flags (default: the
// aligned-table report; -format json -out all.jsonl for the byte-stable
// interchange form), all prose to stderr.
func runCoordinate(args []string) error {
	fs := flag.NewFlagSet("coordinate", flag.ExitOnError)
	workers := fs.Int("workers", 0, "concurrent shard worker processes (0 = all cores)")
	shards := fs.Int("shards", 0, "campaign partitions (0 = 2x workers; records keep global indices)")
	state := fs.String("state", "", "state directory: manifest, shard files, worker logs, shared cache (required)")
	resume := fs.Bool("resume", false, "continue the manifest in -state (completed shards and cached configs are never recomputed)")
	follow := fs.Bool("follow", false, "follow-the-leader merge: stream merged records while shards are still running")
	deadline := fs.Duration("deadline", 0, "straggler deadline per shard attempt; exceeded workers are killed and their shard reassigned (0 = none)")
	attempts := fs.Int("attempts", 0, "worker launches allowed per shard before the run fails (0 = 3)")
	balance := fs.Bool("balance", true, "cost-balanced shards: pack configurations by estimated cost (LPT) and dispatch heaviest-first, shrinking the straggler tail; -balance=false keeps equal-count modular shards")
	speculate := fs.Bool("speculate", false, "let idle workers duplicate the running shard predicted to finish last into a side file; whichever attempt validates first wins (output bytes unchanged)")
	partial := fs.Bool("partial", false, "degrade instead of failing: merge the completed shards, record the broken ones in partial.json, and let a later -resume finish the campaign (excludes -follow)")
	window := fs.Int("window", 4096, "merge reorder window in records; overflow spills to files under -state (0 = unbounded, all in memory)")
	watch := fs.Bool("watch", false, "read-only status view: render shard progress from the manifest in -state without taking the coordinator lock, then exit (repeats every -interval until done when -interval > 0)")
	interval := fs.Duration("interval", 0, "with -watch: refresh period (0 = print one snapshot and exit)")
	k := fs.Int("k", 0, "sample this many configurations (0 = run the full enumeration)")
	seed := fs.Int64("seed", 1, "root seed (per-task seed tree and sampling)")
	step := fs.Float64("step", 1, "measurement and attacker discretization step")
	wparallel := fs.Int("wparallel", 0, "engine goroutines per worker process (0 = cores/workers)")
	lengthsFlag := fs.String("lengths", "", "comma-separated interval-length grid replacing the paper's 5,8,11,14,17,20 (strictly increasing)")
	fs.Int("parallel", 0, "accepted for uniformity; use -workers and -wparallel")
	pf := addProfileFlags(fs)
	sf := addStreamSinkFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *state == "" {
		return fmt.Errorf("coordinate: -state DIR is required (it holds the resumable manifest and shared cache)")
	}
	if *watch {
		return watchCoordinate(*state, *interval)
	}
	defer pf.start()()
	lengths, err := parseLengthsFlag(*lengthsFlag)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("coordinate: cannot locate own binary to re-exec workers: %w", err)
	}
	opts := sensorfusion.CoordinatorOptions{
		StateDir:       *state,
		Workers:        *workers,
		Shards:         *shards,
		Resume:         *resume,
		Follow:         *follow,
		Seed:           *seed,
		Step:           *step,
		SampleK:        *k,
		ShardTimeout:   *deadline,
		MaxAttempts:    *attempts,
		Balance:        *balance,
		Speculate:      *speculate,
		Partial:        *partial,
		MergeWindow:    *window,
		WorkerParallel: *wparallel,
		Lengths:        lengths,
		ReproCommand:   []string{self},
		Log:            os.Stderr,
	}
	var res sensorfusion.CoordinateResult
	if err := sf.streamOut(func(sink results.Sink) error {
		res, err = sensorfusion.Coordinate(opts, sink)
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "coordinate: %d records merged; never-smaller check: %d violations\n",
		res.Records, len(res.Violations))
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, "VIOLATION: "+v)
		}
		return fmt.Errorf("%d never-smaller violations in merged set", len(res.Violations))
	}
	if res.Partial {
		for _, f := range res.Failed {
			fmt.Fprintf(os.Stderr, "coordinate: shard %d failed terminally (%s after %d attempts): %s\n",
				f.Shard, f.Class, f.Attempts, f.Error)
		}
		fmt.Fprintf(os.Stderr, "coordinate: PARTIAL result (%d shards failed; see %s); rerun with -resume to complete the campaign\n",
			len(res.Failed), coordinator.PartialPath(*state))
		return fmt.Errorf("coordinate: partial result: %d shards failed terminally", len(res.Failed))
	}
	return nil
}

// watchCoordinate renders a coordinated campaign's progress from its
// manifest — read-only, without the coordinator's pid lock, so it can
// watch a live run from another terminal. With a positive interval it
// refreshes until every shard is done; with interval 0 it prints one
// snapshot and exits.
func watchCoordinate(stateDir string, interval time.Duration) error {
	for {
		st, err := coordinator.ReadStatus(stateDir)
		if err != nil {
			return err
		}
		var t render.Table
		t.Header = []string{"shard", "state", "records", "attempts", "cost", "elapsed"}
		for _, sh := range st.Shard {
			t.AddRow(
				fmt.Sprintf("%d", sh.Index),
				sh.State,
				fmt.Sprintf("%d/%d", sh.Records, sh.Expected),
				fmt.Sprintf("%d", sh.Attempts),
				fmt.Sprintf("%.3g", sh.Cost),
				sh.Elapsed.Round(time.Millisecond).String(),
			)
		}
		fmt.Print(t.String())
		failed := ""
		if st.Failed > 0 {
			failed = fmt.Sprintf(", %d FAILED", st.Failed)
		}
		fmt.Printf("shards %d/%d done (%d running, %d pending%s), records %d/%d, %d worker attempts\n",
			st.DoneShards, st.Shards, st.Running, st.Pending, failed, st.DoneRecords, st.Total, st.Attempts)
		fmt.Print(etaLine(st))
		if interval <= 0 || st.DoneShards == st.Shards {
			return nil
		}
		time.Sleep(interval)
		fmt.Println()
	}
}

// etaLine renders the remaining-work estimate for one watch snapshot.
// An uncalibrated cost model (no shard has both a cost estimate and a
// recorded wall time yet) has NO throughput to extrapolate from — the
// honest render is "warming up", never a division by zero dressed up
// as +Inf or NaN seconds.
func etaLine(st coordinator.Status) string {
	switch {
	case st.DoneShards == st.Shards:
		return ""
	case !st.Calibrated:
		return "eta: warming up (no completed shard has a recorded cost and wall time yet)\n"
	default:
		return fmt.Sprintf("estimated remaining serial work: %v (cost model calibrated on completed shards)\n",
			st.EstimatedRemaining.Round(time.Second))
	}
}

// runUpdate incrementally recomputes a completed coordinated campaign
// after a spec edit: diff the new spec's per-config digests against the
// state directory's spec manifest, re-run only the invalidated and new
// indices through the coordinator (sharing the campaign cache), then
// replay the FULL new spec from the cache into the sink — byte-identical
// to a from-scratch run of the edited spec.
func runUpdate(args []string) error {
	fs := flag.NewFlagSet("update", flag.ExitOnError)
	workers := fs.Int("workers", 0, "concurrent shard worker processes (0 = all cores)")
	shards := fs.Int("shards", 0, "partitions for the re-run subset (0 = 2x workers; capped at the subset size)")
	state := fs.String("state", "", "state directory of the completed campaign to update (required)")
	deadline := fs.Duration("deadline", 0, "straggler deadline per shard attempt (0 = none)")
	attempts := fs.Int("attempts", 0, "worker launches allowed per shard before the run fails (0 = 3)")
	balance := fs.Bool("balance", true, "cost-balanced shards over the re-run subset")
	window := fs.Int("window", 4096, "merge reorder window in records (0 = unbounded)")
	k := fs.Int("k", 0, "sample this many configurations (0 = run the full enumeration)")
	seed := fs.Int64("seed", 1, "root seed (per-task seed tree and sampling)")
	step := fs.Float64("step", 1, "measurement and attacker discretization step")
	wparallel := fs.Int("wparallel", 0, "engine goroutines per worker process (0 = cores/workers)")
	lengthsFlag := fs.String("lengths", "", "comma-separated interval-length grid replacing the paper's 5,8,11,14,17,20 (strictly increasing)")
	fs.Int("parallel", 0, "accepted for uniformity; use -workers and -wparallel")
	sf := addStreamSinkFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *state == "" {
		return fmt.Errorf("update: -state DIR is required (the completed campaign's state directory)")
	}
	lengths, err := parseLengthsFlag(*lengthsFlag)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("update: cannot locate own binary to re-exec workers: %w", err)
	}
	opts := sensorfusion.CoordinatorOptions{
		StateDir:       *state,
		Workers:        *workers,
		Shards:         *shards,
		Seed:           *seed,
		Step:           *step,
		SampleK:        *k,
		ShardTimeout:   *deadline,
		MaxAttempts:    *attempts,
		Balance:        *balance,
		MergeWindow:    *window,
		WorkerParallel: *wparallel,
		Lengths:        lengths,
		ReproCommand:   []string{self},
		Log:            os.Stderr,
	}
	var res sensorfusion.UpdateResult
	if err := sf.streamOut(func(sink results.Sink) error {
		res, err = sensorfusion.Update(opts, sink)
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "update: %d configurations (%d unchanged, %d invalidated, %d new) — re-ran %d, replayed %d records with %d cache misses\n",
		res.Total, res.Unchanged, res.Invalidated, res.New, res.Reran, res.Records, res.ReplayMisses)
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, "VIOLATION: "+v)
		}
		return fmt.Errorf("%d never-smaller violations in merged set", len(res.Violations))
	}
	return nil
}

// runDoctor validates a campaign state directory and/or result cache and
// prints one copy-pasteable fix command per finding. It never modifies
// anything itself.
func runDoctor(args []string) error {
	fs := flag.NewFlagSet("doctor", flag.ExitOnError)
	state := fs.String("state", "", "campaign state directory to validate (lock, manifest, spec, shard files)")
	cacheDir := fs.String("cache", "", "result cache directory to validate (defaults to STATE/cache when it exists)")
	fs.Int("parallel", 0, "accepted for uniformity; doctor is sequential")
	fs.Int64("seed", 0, "accepted for uniformity; doctor draws no randomness")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *state == "" && *cacheDir == "" {
		return fmt.Errorf("doctor: nothing to examine — pass -state DIR and/or -cache DIR")
	}
	findings, err := sensorfusion.Doctor(sensorfusion.DoctorOptions{
		StateDir: *state,
		CacheDir: *cacheDir,
	})
	if err != nil {
		return err
	}
	if len(findings) == 0 {
		fmt.Println("doctor: clean")
		return nil
	}
	for _, f := range findings {
		fmt.Printf("%s: %s\n    %s\n", f.Code, f.Path, f.Detail)
		if f.Fix != "" {
			fmt.Printf("    fix: %s\n", f.Fix)
		} else {
			fmt.Printf("    fix: none advisable from this machine\n")
		}
	}
	return fmt.Errorf("%d finding(s)", len(findings))
}

func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("o", "trace.jsonl", "trace output path")
	rounds := fs.Int("rounds", 200, "fusion rounds to record")
	seed := fs.Int64("seed", 7, "simulation seed")
	kindName := fs.String("schedule", "Descending", "Ascending|Descending|Random")
	fs.Int("parallel", 0, "accepted for uniformity; a trace is one sequential scenario")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var kind schedule.Kind
	switch *kindName {
	case "Ascending":
		kind = schedule.Ascending
	case "Descending":
		kind = schedule.Descending
	case "Random":
		kind = schedule.Random
	default:
		return fmt.Errorf("unknown schedule %q", *kindName)
	}
	widths := sensor.Suite(sensor.LandSharkSuite()).Widths(10)
	rng := rand.New(rand.NewSource(*seed))
	sched, err := schedule.ForKind(kind, widths, nil, nil, rng)
	if err != nil {
		return err
	}
	s, err := sim.NewSimulator(sim.Setup{
		Widths: widths, F: 1, Targets: []int{0},
		Scheduler: sched, Strategy: attack.NewOptimal(), Step: 0.1,
	})
	if err != nil {
		return err
	}
	file, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer file.Close()
	w := trace.NewWriter(file)
	truth := 10.0
	suite := sensor.Suite(sensor.LandSharkSuite())
	for round := 1; round <= *rounds; round++ {
		truth += (rng.Float64()*2 - 1) * 0.05
		correct := suite.MeasureAll(truth, rng)
		res, err := s.Round(correct)
		if err != nil {
			return err
		}
		tv := truth
		if err := w.Write(trace.FromRound(round, res.Order, res.Final, 1, res.Fused, res.Suspects, &tv)); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// Post-mortem: read the trace back and summarize.
	file2, err := os.Open(*out)
	if err != nil {
		return err
	}
	defer file2.Close()
	recs, err := trace.ReadAll(file2)
	if err != nil {
		return err
	}
	sum, err := trace.Summarize(recs)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d rounds to %s (%s schedule, attacked sensor 0)\n\n", w.Count(), *out, kind)
	fmt.Printf("post-mortem: rounds=%d meanWidth=%.3f maxWidth=%.3f truthLosses=%d suspects=%v\n",
		sum.Rounds, sum.MeanWidth, sum.MaxWidth, sum.TruthLosses, sum.Suspects)
	if sum.TruthLosses > 0 {
		return fmt.Errorf("fusion lost the truth %d times — fault bound violated", sum.TruthLosses)
	}
	return nil
}

func runStrategies(args []string) error {
	fs := flag.NewFlagSet("strategies", flag.ExitOnError)
	kindName := fs.String("schedule", "Descending", "Ascending|Descending")
	parallel := fs.Int("parallel", 0, "engine workers (0 = all cores)")
	batch := fs.Int("batch", 1, "strategies per engine task (output is byte-identical for every value)")
	seed := fs.Int64("seed", 0, "root seed (kept for uniformity; this enumeration is seed-independent)")
	sf := addSinkFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var kind schedule.Kind
	switch *kindName {
	case "Ascending":
		kind = schedule.Ascending
	case "Descending":
		kind = schedule.Descending
	default:
		return fmt.Errorf("unknown schedule %q", *kindName)
	}
	widths := []float64{5, 11, 17}
	opts := experiments.Table1Options{MeasureStep: 1, AttackerStep: 1, Parallel: *parallel, Batch: *batch, Seed: *seed}
	if sf.recordMode() {
		return sf.streamOut(func(sink results.Sink) error {
			return experiments.CompareStrategiesRecords(widths, 1, kind, opts, sink)
		})
	}
	rows, err := experiments.CompareStrategies(widths, 1, kind, opts)
	if err != nil {
		return err
	}
	fmt.Printf("Attacker-strategy ablation: L=%v, fa=1, %s schedule\n\n", widths, kind)
	fmt.Print(experiments.StrategiesReport(rows))
	return nil
}

func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	steps := fs.Int("steps", 500, "control periods per schedule")
	seed := fs.Int64("seed", 1, "simulation seed")
	parallel := fs.Int("parallel", 0, "engine workers (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Extended case study: the LandShark suite plus a trusted IMU that
	// the attacker cannot spoof, and all four schedules including
	// TrustedLast (Section IV-C). One campaign task per schedule; every
	// task reseeds from -seed so each schedule faces the same conditions
	// stream regardless of worker count.
	suite := append(sensor.Suite{}, sensor.LandSharkSuite()...)
	suite = append(suite, sensor.IMU())
	kinds := []schedule.Kind{schedule.Ascending, schedule.Descending, schedule.Random, schedule.TrustedLast}
	results, err := campaign.Map(len(kinds), campaign.Options{Workers: *parallel, Seed: *seed},
		func(k int, _ *rand.Rand) (platoon.Result, error) {
			p := platoon.NewParams(kinds[k])
			p.Suite = suite
			p.F = 2 // n=5 sensors now; keep f = ceil(n/2)-1
			p.TrustedImmune = true
			runner, err := platoon.NewRunner(p, rand.New(rand.NewSource(*seed)))
			if err != nil {
				return platoon.Result{}, err
			}
			return runner.Run(*steps, false)
		})
	if err != nil {
		return err
	}
	var t render.Table
	t.Header = []string{"schedule", ">10.5 mph", "<9.5 mph", "preemptions", "detections"}
	for k, res := range results {
		t.AddRow(kinds[k].String(),
			fmt.Sprintf("%.2f%%", 100*res.UpperRate()),
			fmt.Sprintf("%.2f%%", 100*res.LowerRate()),
			fmt.Sprintf("%d", res.Preemptions),
			fmt.Sprintf("%d", res.Detections))
	}
	fmt.Println("Extended schedule sweep — LandShark suite + trusted IMU (n=5, f=2)")
	fmt.Println()
	fmt.Print(t.String())
	return nil
}
