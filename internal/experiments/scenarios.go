// The scenario subsystem: one streaming generator per case-study
// package (faults, platoon+canbus, consensus, track), all emitting
// typed results.Records through the same campaign engine, per-task seed
// tree, content-addressed cache, spec-digest list, and shard forms as
// table1 — plus the verdict wiring that scores every record against the
// paper's claims (see internal/verdict and NewScenarioEvaluator).

package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sensorfusion/internal/cache"
	"sensorfusion/internal/campaign"
	"sensorfusion/internal/results"
	"sensorfusion/internal/verdict"
)

// ScenarioSuites lists the case-study suites in their fixed enumeration
// order. The scenario universe is the concatenation of each suite's
// default configurations in this order; a record's Index is its
// position in that universe regardless of -suite filtering or sharding,
// so filtered or sharded runs merge back byte-identically.
func ScenarioSuites() []string {
	return []string{"faults", "platoon", "consensus", "track"}
}

// ScenarioOptions configures a scenario campaign across the case-study
// suites.
type ScenarioOptions struct {
	// Suites selects a subset of ScenarioSuites (nil or empty = all).
	// Filtering keeps global record indices and per-scenario seeds, so
	// a suite run is a sub-stream of the full run, not a reseeding.
	Suites []string
	// Steps is the number of simulated rounds (faults, track), control
	// periods (platoon), or a scale on consensus rounds, per scenario.
	// Default 100. Steps participates in the cache digest.
	Steps int
	// Parallel bounds the engine's worker goroutines (default NumCPU);
	// results are identical for every value.
	Parallel int
	// Batch groups consecutive scenarios per engine task; byte-identical
	// for every value, excluded from digests.
	Batch int
	// Seed roots the per-scenario seed tree: scenario k of the universe
	// draws from campaign.TaskSeed(Seed, k) regardless of worker count,
	// batch size, suite filter, or shard.
	Seed int64
	// Progress, when non-nil, is called from the serialized emission
	// path after each scenario with (done, total).
	Progress func(done, total int)
	// Cache, when non-nil, memoizes per-scenario metrics under a digest
	// of (suite, config, steps, seed, universe index); a warm re-run
	// simulates nothing. Cache, Parallel, Batch, Progress, and Context
	// are excluded from the digest — they cannot change results.
	Cache *cache.Store
	// Context, when non-nil, makes the run cancelable.
	Context context.Context
	// Shard restricts the run to one deterministic partition of the
	// (possibly suite-filtered) plan, in the same modular or explicit
	// index-set forms the campaign generator accepts. Indices are
	// positions in the filtered plan; emitted records keep universe
	// indices.
	Shard ShardSpec
}

func (o ScenarioOptions) withDefaults() ScenarioOptions {
	if o.Steps <= 0 {
		o.Steps = 100
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.NumCPU()
	}
	return o
}

// scenarioRunner is one case-study configuration: a label for reports,
// a canonical parameter string for digests, and the simulation itself. Implementations live in
// scenario_faults.go, scenario_platoon.go, scenario_consensus.go, and
// scenario_track.go.
type scenarioRunner interface {
	label() string
	// canon returns the canonical parameter string covering every
	// result-bearing knob of the configuration (steps, seed, and index
	// are appended by the digest).
	canon() string
	// run simulates the scenario for steps rounds using rng as the only
	// randomness source and returns the record metrics in fixed order.
	run(steps int, rng *rand.Rand) ([]results.Metric, error)
}

// scenarioTask is one planned scenario: its suite kind, its runner, and
// its universe index.
type scenarioTask struct {
	kind     string // record kind, "scenario-<suite>"
	runner   scenarioRunner
	universe int // index in the full all-suites enumeration
}

// scenarioUniverse enumerates every suite's default configurations in
// ScenarioSuites order. The universe is the stable spec the digests,
// seeds, and record indices are defined over.
func scenarioUniverse() []scenarioTask {
	var tasks []scenarioTask
	add := func(suite string, runners []scenarioRunner) {
		for _, r := range runners {
			tasks = append(tasks, scenarioTask{kind: "scenario-" + suite, runner: r, universe: len(tasks)})
		}
	}
	add("faults", faultScenarios())
	add("platoon", platoonScenarios())
	add("consensus", consensusScenarios())
	add("track", trackScenarios())
	return tasks
}

// plan resolves the options to the ordered task list to run: the
// universe filtered by Suites, then sharded.
func (o ScenarioOptions) plan() ([]scenarioTask, error) {
	if err := o.Shard.validate(); err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(o.Suites))
	known := make(map[string]bool)
	for _, s := range ScenarioSuites() {
		known[s] = true
	}
	for _, s := range o.Suites {
		if !known[s] {
			return nil, fmt.Errorf("experiments: unknown scenario suite %q (have %v)", s, ScenarioSuites())
		}
		want[s] = true
	}
	var tasks []scenarioTask
	for _, t := range scenarioUniverse() {
		if len(want) > 0 && !want[t.kind[len("scenario-"):]] {
			continue
		}
		tasks = append(tasks, t)
	}
	if !o.Shard.Enabled() {
		return tasks, nil
	}
	var mine []scenarioTask
	if len(o.Shard.Indices) > 0 {
		for _, k := range o.Shard.Indices {
			if k >= len(tasks) {
				return nil, fmt.Errorf("experiments: shard index %d outside the %d planned scenarios", k, len(tasks))
			}
			mine = append(mine, tasks[k])
		}
		return mine, nil
	}
	for k, t := range tasks {
		if k%o.Shard.Count == o.Shard.Index {
			mine = append(mine, t)
		}
	}
	return mine, nil
}

// digest canonicalizes one scenario's result-bearing inputs: the
// suite-qualified parameter string, the step count, the root seed, and
// the universe index (which fixes the scenario's task seed). Parallel,
// Batch, Cache, Progress, Context, and shard or suite filters are
// excluded — they cannot change results.
func (o ScenarioOptions) digest(t scenarioTask) string {
	return results.Digest(fmt.Sprintf("%s|%s|steps=%d|seed=%d|task=%d",
		t.kind, t.runner.canon(), o.Steps, o.Seed, t.universe))
}

// ScenarioDigests resolves the options to one digest per planned
// scenario, in plan order — the scenario analogue of
// CampaignOptions.ConfigDigests, and the list a spec manifest or
// incremental update layer diffs.
func ScenarioDigests(opts ScenarioOptions) ([]string, error) {
	o := opts.withDefaults()
	tasks, err := o.plan()
	if err != nil {
		return nil, err
	}
	digests := make([]string, len(tasks))
	for k, t := range tasks {
		digests[k] = o.digest(t)
	}
	return digests, nil
}

// scenarioEntry is the cache form of one evaluated scenario: its
// metrics plus the measured wall time of the attempt that computed them
// (the cost-model feedback channel, exactly table1Entry's layout) and
// the self-describing digest that lets Get and doctor refuse misplaced
// entries.
type scenarioEntry struct {
	Metrics   []results.Metric `json:"metrics"`
	ElapsedNS int64            `json:"elapsed_ns,omitempty"`
	Digest    string           `json:"digest,omitempty"`
}

// runScenarioTask evaluates one scenario: cache lookup, simulation with
// the task's tree seed on a miss, cache fill with measured wall time.
func runScenarioTask(t scenarioTask, o ScenarioOptions) (results.Record, error) {
	key := o.digest(t)
	rec := results.Record{
		Kind:   t.kind,
		Index:  t.universe,
		Config: t.runner.label(),
		Digest: key,
		Seed:   o.Seed,
	}
	if o.Cache != nil {
		var entry scenarioEntry
		hit, err := o.Cache.Get(key, &entry)
		if err != nil {
			return results.Record{}, err
		}
		if hit && entry.Digest != key {
			return results.Record{}, fmt.Errorf("experiments: cache entry %s carries digest %q — misplaced or corrupt entry (run `repro doctor -cache %s`)",
				key, entry.Digest, o.Cache.Dir())
		}
		if hit {
			rec.Metrics = entry.Metrics
			return rec, nil
		}
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(campaign.TaskSeed(o.Seed, t.universe)))
	metrics, err := t.runner.run(o.Steps, rng)
	if err != nil {
		return results.Record{}, fmt.Errorf("experiments: scenario %s %q: %w", t.kind, t.runner.label(), err)
	}
	rec.Metrics = metrics
	if o.Cache != nil {
		entry := scenarioEntry{Metrics: metrics, ElapsedNS: time.Since(start).Nanoseconds(), Digest: key}
		if err := o.Cache.Put(key, entry); err != nil {
			return results.Record{}, err
		}
	}
	return rec, nil
}

// StreamScenarios runs the planned scenarios through the campaign
// engine and streams one record per scenario into sink, in plan order
// (ascending universe index). Records are byte-identical for every
// Parallel and Batch value and for warm-cache re-runs; the sink is not
// flushed (the caller owns the stream lifecycle).
//
// The per-scenario seed is campaign.TaskSeed(Seed, universeIndex) —
// deliberately NOT the engine's per-task seed, which would vary with
// suite filtering and sharding. The engine provides parallelism and
// ordered emission; the seeds come from the stable universe.
func StreamScenarios(opts ScenarioOptions, sink results.Sink) error {
	o := opts.withDefaults()
	tasks, err := o.plan()
	if err != nil {
		return err
	}
	engineOpts := campaign.Options{Workers: o.Parallel, Seed: o.Seed}
	if o.Context != nil {
		engineOpts.Context = o.Context
	}
	done := 0
	return campaign.StreamBatched(len(tasks), o.Batch, engineOpts,
		func(i int, _ *rand.Rand) (results.Record, error) {
			return runScenarioTask(tasks[i], o)
		},
		func(i int, rec results.Record) error {
			done++
			if o.Progress != nil {
				o.Progress(done, len(tasks))
			}
			return sink.Write(rec)
		})
}

// ScenarioCriteria returns the verdict criteria for one suite's record
// kind ("scenario-faults", ...): the declarative encoding of the
// paper's claims each scenario is scored against. Unknown kinds return
// nil.
func ScenarioCriteria(kind string) []verdict.Criterion {
	switch kind {
	case "scenario-faults":
		return faultCriteria()
	case "scenario-platoon":
		return platoonCriteria()
	case "scenario-consensus":
		return consensusCriteria()
	case "scenario-track":
		return trackCriteria()
	}
	return nil
}

// NewScenarioEvaluator returns a verdict evaluator with every suite's
// criteria registered, forwarding records to next (nil discards them).
// Interpose it as the sink of StreamScenarios and read Verdicts() after
// the stream ends.
func NewScenarioEvaluator(next results.Sink) *verdict.Evaluator {
	ev := verdict.NewEvaluator(next)
	for _, suite := range ScenarioSuites() {
		kind := "scenario-" + suite
		ev.Register(kind, ScenarioCriteria(kind)...)
	}
	return ev
}

// RunScenarios streams the planned scenarios through the verdict layer
// into sink (nil discards records) and returns every verdict. The error
// reports engine or simulation failures only; claim failures are FAIL
// verdicts for the caller to inspect (verdict.Counts).
func RunScenarios(opts ScenarioOptions, sink results.Sink) ([]verdict.Verdict, error) {
	ev := NewScenarioEvaluator(sink)
	if err := StreamScenarios(opts, ev); err != nil {
		return nil, err
	}
	return ev.Verdicts(), nil
}
