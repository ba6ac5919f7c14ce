// Package sensorfusion is an attack-resilient sensor fusion library
// reproducing "Attack-Resilient Sensor Fusion" (Ivanov, Pajic, Lee,
// DATE 2014).
//
// Multiple sensors measure the same physical variable; each measurement
// is converted to a real interval guaranteed to contain the true value
// (an abstract sensor). Marzullo's algorithm fuses n such intervals under
// a fault bound f into the fusion interval: the span of points contained
// in at least n-f intervals. An attacker controlling up to f sensors and
// eavesdropping on the shared bus tries to maximize the fusion interval
// while evading the overlap detector; the library implements her optimal
// policies and the communication schedules (Ascending, Descending,
// Random, TrustedLast) whose choice bounds her power.
//
// # Quick start
//
//	readings := []sensorfusion.Interval{
//		sensorfusion.MustInterval(9.9, 10.1),
//		sensorfusion.MustInterval(9.6, 10.6),
//		sensorfusion.MustInterval(9.4, 11.4),
//	}
//	fused, err := sensorfusion.Fuse(readings, 1)
//
// # Campaign engine
//
// The paper's evaluation is a large sweep: every (widths multiset, fa)
// configuration for n = 3..5 plus Monte Carlo case studies. RunCampaign
// executes any slice of that campaign through a worker-pool engine
// (internal/campaign) that spreads configurations across all cores.
// Results are collected in task order and every task seeds its own
// randomness deterministically — the engine offers a per-task seed tree
// (hash(rootSeed, i)), the Monte Carlo batches reseed verbatim from the
// root seed, and the enumeration-based generators are deterministic
// outright — so output is byte-identical for every worker count. Heavy
// configurations parallelize INSIDE themselves: each Table I
// configuration runs as three independent engine items (attacked
// ascending, attacked descending, clean baseline) reassembled in
// emission order, so one expensive row spreads across the pool without
// moving a byte. The hot path underneath is one Marzullo scan,
// interval.Sweeper, whose buffers each simulator reuses across rounds
// without allocating; a batched form of it (interval.Sweeper.FuseBatch)
// that scores many candidate placements per call bit-identically to
// scalar fusion — with a runtime-dispatched kernel (generic, or AVX2
// assembly for k=2 placements selected by CPU detection;
// SENSORFUSION_KERNEL or SetKernel overrides); and a plan search whose
// uncached path allocates nothing (arena-backed
// memoization and witness precomputation). The cmd/repro subcommands
// all take -parallel and -seed and inherit the same guarantee; campaign
// and coordinate also take -cpuprofile/-memprofile (see `make
// profile`).
//
// # Streaming results pipeline
//
// Every experiment generator emits typed records (internal/results)
// through a Sink — JSONL, CSV, or an aligned table — instead of only
// accumulating in-memory rows. Records flow to the sink in enumeration
// order as engine tasks complete (campaign.Stream reassembles
// out-of-order completions), so streamed output is byte-identical to a
// serial run for any worker count. StreamCampaign, NewJSONLSink,
// NewCSVSink, NewTableSink, ReadRecords, MergeRecords and
// CheckNeverSmaller expose the pipeline through the facade.
//
// The campaign shards deterministically: shard i of m runs the
// configurations whose global enumeration index is congruent to i mod m,
// and records keep their global index, so concatenating all shard
// outputs and merging (MergeRecords, or `repro merge`) reproduces the
// unsharded stream byte-for-byte, with the paper's never-smaller claim
// re-checked over the merged set. A content-addressed result cache
// (internal/cache, CampaignOptions.CacheDir) memoizes each
// configuration's row under a digest of (config, options, seed): a warm
// re-run of the full 686-configuration campaign executes zero
// simulation tasks.
//
// # Resumable coordination
//
// Coordinate supervises the whole sharded workflow as one resumable
// job: it partitions the campaign into shards, dispatches them to
// worker processes (re-execs of `repro campaign -shard i/m`, or
// in-process workers for library use) sharing one cache directory,
// tracks per-shard progress in a crash-safe manifest, kills and
// reassigns stragglers by deadline, and merges the shard streams into
// output byte-identical to the unsharded run. Killing a coordinated run
// at any point and calling Coordinate again with Resume set continues
// from the manifest: completed shards are served from disk, completed
// configurations from the cache, and no simulation ever runs twice.
// CoordinatorOptions configures it; `repro coordinate` is the CLI
// surface.
//
// # Scenario suites and the verdict harness
//
// The case-study packages run as first-class campaign generators:
// fault-injection sweeps (internal/faults), multi-vehicle platoon
// traffic over the CAN codec (internal/platoon + internal/canbus),
// Byzantine averaging rounds (internal/consensus), and tracking under
// attack (internal/track) each stream typed records through the same
// engine, seed tree, and cache as the tables. A declarative verdict
// layer (internal/verdict) scores every record against the paper's
// claims — soundness (the fused interval contains the truth whenever
// the attacker budget is respected), stealth, availability, precision,
// and the consensus drift law — into PASS/FAIL/SKIP verdicts with
// reasons, and a deterministic per-seed fuzzer searches random fusion
// configurations for claim violations, shrinking any counterexample to
// a minimal reproducer embedded in the FAIL verdict. StreamScenarios,
// RunScenarios, ScenarioVerdictCounts, ScenarioReport, and
// FuzzScenarios expose the harness through the facade; `repro
// scenarios` is the CLI surface and exits non-zero on any FAIL, which
// `make ci` uses as a claim gate.
//
// # Incremental updates and state-dir health
//
// A completed coordinated campaign records a spec manifest (spec.json)
// holding the content digest of every configuration it evaluated —
// the same digests that key the result cache. Update diffs the current
// spec against that manifest, partitions the configurations into
// unchanged, invalidated, and new, re-runs ONLY the invalidated and
// new ones through the coordinator, and replays the full edited spec
// from the now-complete cache — so editing one grid parameter
// re-simulates one grid parameter's worth of work while the output
// stays byte-identical to a from-scratch run. Doctor validates state
// and cache directories (stale or foreign locks, torn shard files,
// corrupt manifests and cache entries, spec skew) and pairs every
// finding with the exact command that repairs it. `repro update` and
// `repro doctor` are the CLI surfaces.
//
// The facade re-exports the core types; the full machinery lives in the
// internal packages (interval, fusion, sensor, bus, schedule, attack,
// sim, platoon, experiments, campaign, results, cache, coordinator) and
// is exercised end to end by the examples/ programs and the cmd/repro
// experiment harness. docs/ARCHITECTURE.md maps the layers, spells out
// the determinism contract (seed tree, ordered emission, content
// addressing), and walks through the shard/merge/coordinate workflow.
package sensorfusion
