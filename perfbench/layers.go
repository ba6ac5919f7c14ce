package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"sensorfusion/internal/attack"
	"sensorfusion/internal/cache"
	"sensorfusion/internal/campaign"
	"sensorfusion/internal/experiments"
	"sensorfusion/internal/interval"
	"sensorfusion/internal/results"
	"sensorfusion/internal/schedule"
	"sensorfusion/internal/sim"
	"sensorfusion/internal/verdict"
)

// The traced replicas call each layer's public functions the way the
// binary does and wrap every call in a span. Per-call hot paths (a plan
// search, one record's parse or encode) run millions of times a second,
// so they are timed and counted at the same boundary instead of getting
// a span each; their totals are subtracted from the enclosing span's
// self time.

// --- campaign engine ---------------------------------------------------

// runEngine drives campaign.StreamBatched over n tasks on the given
// number of workers, one "campaign.task" span per task, and reports the
// engine's busy time, utilization and in-order emit wait: the time each
// finished task waited for every lower index before it was emitted.
func runEngine(l *ledger, parent, n, workers int, seed int64, task func(i, span int) error, emit func(i int) error, m metrics) error {
	id := l.begin("campaign.stream", parent)
	var (
		mu   sync.Mutex
		busy time.Duration
	)
	ends := make([]time.Time, n)
	var wait time.Duration
	start := time.Now()
	err := campaign.StreamBatched(n, 1, campaign.Options{Workers: workers, Seed: seed},
		func(i int, _ *rand.Rand) (struct{}, error) {
			t := time.Now()
			err := l.do("campaign.task", id, func(span int) error { return task(i, span) })
			d := time.Since(t)
			mu.Lock()
			busy += d
			mu.Unlock()
			ends[i] = time.Now()
			return struct{}{}, err
		},
		func(i int, _ struct{}) error {
			wait += time.Since(ends[i])
			return emit(i)
		})
	wall := time.Since(start)
	l.end(id)
	if err != nil {
		return err
	}
	m.set("campaign.tasks", float64(n), "count")
	m.set("campaign.busy_s", busy.Seconds(), "s")
	m.set("campaign.util", busy.Seconds()/(wall.Seconds()*float64(workers)), "ratio")
	m.set("campaign.emit_wait_s", wait.Seconds(), "s")
	return nil
}

// --- sim and attack ----------------------------------------------------

// timedStrategy times every Plan call of the strategy it wraps. One
// instance serves one sim.ExpectedWidth call, so it needs no locking.
type timedStrategy struct {
	inner attack.Strategy
	h     *hist
	calls int64
	total time.Duration
}

func (t *timedStrategy) Plan(ctx attack.Context) []interval.Interval {
	start := time.Now()
	out := t.inner.Plan(ctx)
	d := time.Since(start)
	t.h.add(d)
	t.calls++
	t.total += d
	return out
}

func (t *timedStrategy) Name() string { return t.inner.Name() }

// simLedger accumulates the sim and attack layers over a replica.
type simLedger struct {
	hists histSet

	mu        sync.Mutex
	rounds    int64
	planCalls int64
	planTime  time.Duration
}

// expectedWidth evaluates one part of a Table I configuration exactly as
// the campaign generator does (attacked Ascending, attacked Descending,
// or the clean baseline) inside a "sim.expected_width" span.
func (s *simLedger) expectedWidth(l *ledger, parent int, cfg experiments.Table1Config, part int, step float64) (sim.Expectation, error) {
	var exp sim.Expectation
	err := l.do("sim.expected_width", parent, func(int) error {
		f := cfg.F()
		if part == 2 {
			sched, err := schedule.NewAscending(cfg.Widths)
			if err != nil {
				return err
			}
			exp, err = sim.ExpectedWidth(sim.Setup{Widths: cfg.Widths, F: f, Scheduler: sched}, step)
			s.mu.Lock()
			s.rounds += int64(exp.Count)
			s.mu.Unlock()
			return err
		}
		targets, err := attack.ChooseTargets(cfg.Widths, cfg.Fa, attack.TargetSmallest, nil)
		if err != nil {
			return err
		}
		kind := schedule.Ascending
		if part == 1 {
			kind = schedule.Descending
		}
		sched, err := schedule.ForKind(kind, cfg.Widths, nil, nil, nil)
		if err != nil {
			return err
		}
		ts := &timedStrategy{inner: attack.NewOptimal(), h: s.hists.get()}
		defer s.hists.put(ts.h)
		exp, err = sim.ExpectedWidth(sim.Setup{
			Widths: cfg.Widths, F: f, Targets: targets, Scheduler: sched, Strategy: ts,
			Step: step, MaxExact: 600, MCSamples: 160,
		}, step)
		s.mu.Lock()
		s.rounds += int64(exp.Count)
		s.planCalls += ts.calls
		s.planTime += ts.total
		s.mu.Unlock()
		return err
	})
	return exp, err
}

func (s *simLedger) report(l *ledger, m metrics) {
	_, self := l.layerTimes()
	simSelf := self["sim.expected_width"] - s.planTime
	m.set("sim.rounds", float64(s.rounds), "count")
	m.set("sim.self_s", simSelf.Seconds(), "s")
	if s.rounds > 0 {
		m.set("sim.ns_per_round", float64(simSelf.Nanoseconds())/float64(s.rounds), "ns")
	}
	h := s.hists.merged()
	m.set("attack.plan_calls", float64(s.planCalls), "count")
	m.set("attack.plan_s", s.planTime.Seconds(), "s")
	m.set("attack.plan_ns.p50", h.quantile(0.50), "ns")
	m.set("attack.plan_ns.p99", h.quantile(0.99), "ns")
}

// --- cache -------------------------------------------------------------

// cacheEntry mirrors the campaign generator's cache entry, so a timed
// Get pays the same decode the program pays.
type cacheEntry struct {
	experiments.Table1Row
	ElapsedNS int64  `json:"elapsed_ns,omitempty"`
	Digest    string `json:"digest,omitempty"`
}

// cacheLedger times Store.Get calls, one "cache.get" span each.
type cacheLedger struct {
	store *cache.Store
	mu    sync.Mutex
	h     *hist
}

func openCacheLedger(dir string) (*cacheLedger, error) {
	store, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	return &cacheLedger{store: store, h: newHist()}, nil
}

func (c *cacheLedger) get(l *ledger, parent int, key string) error {
	return l.do("cache.get", parent, func(int) error {
		var e cacheEntry
		start := time.Now()
		hit, err := c.store.Get(key, &e)
		d := time.Since(start)
		c.mu.Lock()
		c.h.add(d)
		c.mu.Unlock()
		if err == nil && !hit {
			err = fmt.Errorf("cache miss for %s", key)
		}
		return err
	})
}

func (c *cacheLedger) report(m metrics) {
	hits, misses := c.store.Hits(), c.store.Misses()
	m.set("cache.gets", float64(hits+misses), "count")
	if hits+misses > 0 {
		m.set("cache.hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	}
	m.set("cache.get_us.p50", c.h.quantile(0.50)/1e3, "us")
	m.set("cache.get_us.p99", c.h.quantile(0.99)/1e3, "us")
}

// cacheCensus counts the entries of a cache directory and their bytes.
func cacheCensus(dir string) (entries int, bytes int64) {
	matches, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	for _, p := range matches {
		if info, err := os.Stat(p); err == nil {
			entries++
			bytes += info.Size()
		}
	}
	return entries, bytes
}

// --- results -----------------------------------------------------------

// timedSink times each Write of the sink it wraps.
type timedSink struct {
	next  results.Sink
	total time.Duration
}

func (t *timedSink) Write(rec results.Record) error {
	start := time.Now()
	err := t.next.Write(rec)
	t.total += time.Since(start)
	return err
}

func (t *timedSink) Flush() error { return t.next.Flush() }

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// resultsTrace replays the results layer over record files the way merge
// does: Reader.Next over every file round-robin, ParseRecord over the
// decompressed lines (with the allocations it makes), the bounded
// reorder window, and JSONL encoding. The re-encoded stream must equal
// want byte for byte, or the replica did not do the program's work.
func resultsTrace(l *ledger, parent int, files []string, spillDir, out, want string, m metrics) error {
	id := l.begin("results", parent)
	defer l.end(id)
	var arrived []results.Record
	err := l.do("results.read", id, func(int) error {
		readers := make([]*results.Reader, len(files))
		for i, p := range files {
			r, err := results.NewFileReader(p)
			if err != nil {
				return err
			}
			defer r.Close()
			readers[i] = r
		}
		for live := len(readers); live > 0; {
			live = 0
			for i, r := range readers {
				if r == nil {
					continue
				}
				rec, err := r.Next()
				if err == io.EOF {
					readers[i] = nil
					continue
				}
				if err != nil {
					return err
				}
				arrived = append(arrived, rec)
				live++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var lines [][]byte
	for _, p := range files {
		data, err := readMaybeGzip(p)
		if err != nil {
			return err
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) > 0 {
				lines = append(lines, line)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = l.do("results.parse", id, func(int) error {
		for _, line := range lines {
			if _, err := results.ParseRecord(line); err != nil {
				return err
			}
		}
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	cw := &countingWriter{w: bw}
	enc := &timedSink{next: results.NewJSONL(cw)}
	reorder := results.NewReorderWindow(enc, 0, 4096, spillDir)
	reorderSpan := l.begin("results.reorder", id)
	for _, rec := range arrived {
		if err = reorder.Write(rec); err != nil {
			break
		}
	}
	if err == nil {
		err = reorder.Flush()
	}
	l.end(reorderSpan)
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if problems := checkSame(out, want); len(problems) > 0 {
		return fmt.Errorf("results replica: %s", strings.Join(problems, "; "))
	}

	total, self := l.layerTimes()
	m.set("results.records", float64(len(arrived)), "count")
	m.set("results.read_s", total["results.read"].Seconds(), "s")
	m.set("results.parse_s", total["results.parse"].Seconds(), "s")
	if len(lines) > 0 {
		m.set("results.parse_allocs_per_record", float64(after.Mallocs-before.Mallocs)/float64(len(lines)), "allocs")
	}
	m.set("results.reorder_s", (self["results.reorder"] - enc.total).Seconds(), "s")
	m.set("results.spilled", float64(reorder.Spilled()), "count")
	m.set("results.max_held", float64(reorder.MaxHeld()), "count")
	m.set("results.encode_s", enc.total.Seconds(), "s")
	m.set("results.bytes_out", float64(cw.n), "bytes")
	return nil
}

func readMaybeGzip(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, err
		}
		defer zr.Close()
		r = zr
	}
	return io.ReadAll(r)
}

func stateShards(state string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(state, "shard-*.jsonl.gz"))
	sort.Strings(files)
	return files, err
}

// --- workload replicas -------------------------------------------------

// campaignParts is the engine's unit of work for a campaign: three parts
// (attacked Ascending, attacked Descending, clean) per configuration.
const campaignParts = 3

// coldTrace replays campaign-cold: the sampled configurations' parts
// through the engine with the sim and attack layers timed, a timed
// Store.Get of every configuration's digest against the run's cache, and
// the results layer over its shard files.
func coldTrace(b *bench, l *ledger, root int, m metrics) error {
	seed := coldPool.pick(b.seed)
	cfgs := experiments.SweepSample(b.size.coldK, rand.New(rand.NewSource(seed)))
	out, err := os.ReadFile(b.path("cold.jsonl"))
	if err != nil {
		return err
	}
	got, err := results.ReadJSONL(bytes.NewReader(out))
	if err != nil {
		return err
	}
	if len(got) != len(cfgs) {
		return fmt.Errorf("replica planned %d configurations, the run wrote %d", len(cfgs), len(got))
	}
	var sl simLedger
	means := make([]float64, campaignParts*len(cfgs))
	err = runEngine(l, root, campaignParts*len(cfgs), b.size.workers, seed,
		func(i, span int) error {
			exp, err := sl.expectedWidth(l, span, cfgs[i/campaignParts], i%campaignParts, 2)
			means[i] = exp.Mean
			return err
		},
		func(i int) error {
			key := [campaignParts]string{"asc", "desc", "no_attack"}[i%campaignParts]
			if v, _ := got[i/campaignParts].Metric(key); v != means[i] {
				return fmt.Errorf("replica %s of configuration %d is %v, the run wrote %v", key, i/campaignParts, means[i], v)
			}
			return nil
		}, m)
	if err != nil {
		return err
	}
	sl.report(l, m)

	cl, err := openCacheLedger(b.path("state/cache"))
	if err != nil {
		return err
	}
	keys, err := experiments.CampaignOptions{
		Table1Options: experiments.Table1Options{MeasureStep: 2, AttackerStep: 2, Seed: seed},
		SampleK:       b.size.coldK,
	}.ConfigDigests()
	if err != nil {
		return err
	}
	if err := l.do("cache", root, func(id int) error {
		for _, k := range keys {
			if err := cl.get(l, id, k); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	cl.report(m)

	files, err := stateShards(b.path("state"))
	if err != nil {
		return err
	}
	return resultsTrace(l, root, files, b.path("spill"), b.path("replica.jsonl"), b.path("cold.jsonl"), m)
}

// warmTrace replays campaign-warm: every part of every configuration is
// a timed Store.Get of its digest, driven through the engine as the
// workers do, then the results layer over the run's shard files.
func warmTrace(b *bench, l *ledger, root int, m metrics) error {
	lengths, err := experiments.ParseLengths(b.size.warmLengths)
	if err != nil {
		return err
	}
	keys, err := experiments.CampaignOptions{
		Table1Options: experiments.Table1Options{MeasureStep: 2, AttackerStep: 2, Seed: b.seed},
		Lengths:       lengths,
	}.ConfigDigests()
	if err != nil {
		return err
	}
	cl, err := openCacheLedger(b.path("setup/state/cache"))
	if err != nil {
		return err
	}
	err = runEngine(l, root, campaignParts*len(keys), b.size.workers, b.seed,
		func(i, span int) error {
			return cl.get(l, span, keys[i/campaignParts])
		},
		func(int) error { return nil }, m)
	if err != nil {
		return err
	}
	cl.report(m)
	files, err := stateShards(b.path("setup/state"))
	if err != nil {
		return err
	}
	return resultsTrace(l, root, files, b.path("spill"), b.path("replica.jsonl"), b.path("warm.jsonl"), m)
}

func mergeTrace(b *bench, l *ledger, root int, m metrics) error {
	return resultsTrace(l, root, shardPaths(b), b.path("spill"), b.path("replica.jsonl"), b.path("setup/expected.jsonl"), m)
}

// scenTrace replays scenarios: each scenario of the universe is one
// engine task running StreamScenarios restricted to that scenario on one
// worker, inside a span named after its suite; emitted records pass a
// timed verdict evaluator, then the claim fuzzer runs, and the results
// layer re-reads the run's output. The replica's records must equal the
// run's.
func scenTrace(b *bench, l *ledger, root int, m metrics) error {
	seed := scenPool.pick(b.seed)
	opts := experiments.ScenarioOptions{Steps: b.size.scenSteps, Seed: seed, Parallel: 1}
	var suiteOf []string
	for _, suite := range experiments.ScenarioSuites() {
		o := opts
		o.Suites = []string{suite}
		d, err := experiments.ScenarioDigests(o)
		if err != nil {
			return err
		}
		for range d {
			suiteOf = append(suiteOf, suite)
		}
	}
	recs := make([]results.Record, len(suiteOf))
	replica := b.path("replica-records.jsonl")
	f, err := os.Create(replica)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	ev := experiments.NewScenarioEvaluator(results.NewJSONL(bw))
	err = runEngine(l, root, len(suiteOf), b.size.workers, seed,
		func(i, span int) error {
			return l.do("scenarios."+suiteOf[i], span, func(int) error {
				o := opts
				o.Shard = experiments.ShardSpec{Indices: []int{i}}
				var c results.Collector
				if err := experiments.StreamScenarios(o, &c); err != nil {
					return err
				}
				if len(c.Records) != 1 {
					return fmt.Errorf("scenario %d produced %d records", i, len(c.Records))
				}
				recs[i] = c.Records[0]
				return nil
			})
		},
		func(i int) error {
			return l.do("verdict.eval", root, func(int) error { return ev.Write(recs[i]) })
		}, m)
	if err != nil {
		return err
	}
	if err := ev.Flush(); err != nil {
		return err
	}
	var fuzz verdict.FuzzResult
	_ = l.do("verdict.fuzz", root, func(int) error {
		fuzz = verdict.Fuzz(verdict.FuzzOptions{N: b.size.fuzzN, Seed: seed})
		return nil
	})
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if problems := checkSame(replica, b.path("scenarios.jsonl")); len(problems) > 0 {
		return fmt.Errorf("scenario replica: %s", strings.Join(problems, "; "))
	}
	total, _ := l.layerTimes()
	for _, suite := range experiments.ScenarioSuites() {
		m.set("scenarios."+suite+"_s", total["scenarios."+suite].Seconds(), "s")
	}
	_, fail, _ := verdict.Counts(append(ev.Verdicts(), fuzz.Verdicts...))
	m.set("verdict.eval_s", total["verdict.eval"].Seconds(), "s")
	m.set("verdict.fuzz_s", total["verdict.fuzz"].Seconds(), "s")
	m.set("verdict.fail", float64(fail), "count")
	return resultsTrace(l, root, []string{b.path("scenarios.jsonl")}, b.path("spill"), b.path("replica.jsonl"), b.path("scenarios.jsonl"), m)
}
