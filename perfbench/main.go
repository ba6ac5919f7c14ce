// Command perfbench is the end-to-end benchmark of the repro binary.
//
// It runs one workload through the real binary with tracing off and
// prints the end-to-end metrics, or, with -trace 1, makes one separate
// traced run that times calls into each layer's public functions from
// this package's own code and prints the per-layer ledger. Every output
// the binary writes is checked; a non-zero exit, a failed check, a
// failed shard attempt, or a FAIL verdict counts as a failed operation.
//
// Run it through run.sh from the root of the repository, which builds
// cmd/repro and this command into .bench_build/ first:
//
//	bash perfbench/run.sh --workload campaign-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. BENCHMARK.json at the root of
// the repository names the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: campaign-cold, campaign-warm, merge, scenarios")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed loop runs")
	trace := flag.Int("trace", 0, "1 makes one traced run and prints the per-layer metrics")
	repro := flag.String("repro", "", "path of the built repro binary")
	work := flag.String("work", "", "scratch directory for inputs and outputs")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok || *repro == "" || *work == "" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or missing -repro/-work\n", *workload)
		os.Exit(2)
	}
	b := &bench{repro: *repro, dir: *work, trash: filepath.Join(*work, "trash"), seed: *seed, size: defaultSize, log: os.Stderr}
	dir, err := b.fresh(*workload, w.synced)
	if err != nil {
		fatal(err)
	}
	b.dir = dir
	var res result
	if *trace == 1 {
		res, err = traced(b, w)
	} else {
		res, err = measure(b, w, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	if !w.synced {
		// Drop the large inputs and outputs before their dirty pages
		// are written back under the next run.
		if err := os.RemoveAll(b.path("setup")); err != nil {
			fatal(err)
		}
	}
	if err := printResult(os.Stdout, res); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// size scales the workloads; the benchmark's own test runs them tiny.
type size struct {
	coldK        int    // configurations sampled by campaign-cold
	warmLengths  string // length grid enumerated in full by campaign-warm
	mergeRecords int    // records merged by the merge workload
	mergeShards  int    // shard files they are spread over
	scenSteps    int    // steps per scenario
	fuzzN        int    // fuzzed configurations per scenarios run
	setupReps    int    // setups per run; setup_s is their median
	workers      int    // worker processes or engine goroutines
}

var defaultSize = size{
	coldK:        96,
	warmLengths:  "2,3,4,5,6,7",
	mergeRecords: 200000,
	mergeShards:  8,
	scenSteps:    2000,
	fuzzN:        200,
	setupReps:    5,
	workers:      2,
}

// bench is one run's context.
type bench struct {
	repro string
	dir   string
	trash string // see discard
	seed  int64
	size  size
	log   io.Writer
	// corrupt is nil except in the benchmark's own test, which damages
	// an output between the run and its checks.
	corrupt func(path string)

	discarded int
}

func (b *bench) path(name string) string { return filepath.Join(b.dir, name) }

// workload is one set of inputs driven through the binary. setup
// prepares them under the setup directory (untimed by the op; repeated
// setupReps times and reported as setup_s), op makes one timed
// invocation and checks its output, and trace replicates the op's work
// in-process with a span around each layer call.
type workload struct {
	synced bool // leaves coordinator state the program fsynced; see fresh
	setup  func(b *bench) error
	op     func(b *bench) (opStats, error)
	trace  func(b *bench, l *ledger, root int, m metrics) error
}

var workloads = map[string]workload{
	"campaign-cold": {synced: true, setup: coldSetup, op: coldOp, trace: coldTrace},
	"campaign-warm": {synced: true, setup: warmSetup, op: warmOp, trace: warmTrace},
	"merge":         {setup: mergeSetup, op: mergeOp, trace: mergeTrace},
	"scenarios":     {setup: scenSetup, op: scenOp, trace: scenTrace},
}

// opStats is one timed operation. An error returned next to it is a
// harness failure (the benchmark cannot go on); failures of the program
// under test are counted in failed instead.
type opStats struct {
	wall      float64 // seconds
	cpu       float64 // user+sys seconds of the whole process tree
	rssMB     float64 // largest maxrss of any process in the tree
	items     int
	attempted int
	failed    int
	badCheck  bool // an output check failed (the output is wrong)
	coord     metrics
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func printResult(w io.Writer, r result) error {
	out, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// runSetups runs the workload's setup reps times and returns the median
// wall time. Each rep starts from an empty setup directory; removing the
// previous rep's files is not part of the timed set-up.
func runSetups(b *bench, w workload, reps int) (float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		if _, err := b.fresh("setup", w.synced); err != nil {
			return 0, err
		}
		settle()
		start := time.Now()
		if err := w.setup(b); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// measure is the untraced run: set up, then repeat the timed operation
// until seconds have passed, and report per-operation medians.
func measure(b *bench, w workload, seconds float64) (result, error) {
	setup, err := runSetups(b, w, b.size.setupReps)
	if err != nil {
		return result{}, err
	}
	var ops []opStats
	start := time.Now()
	for len(ops) == 0 || time.Since(start).Seconds() < seconds {
		s, err := w.op(b)
		if err != nil {
			return result{}, err
		}
		ops = append(ops, s)
		fmt.Fprintf(b.log, "perfbench: op %d: wall %.4fs cpu %.4fs rss %.2fMiB items %d failed %d\n",
			len(ops), s.wall, s.cpu, s.rssMB, s.items, s.failed)
		if s.coord != nil {
			// The coordinator ledger rides along on every untraced
			// campaign run, on its own line before the result.
			line, err := json.Marshal(map[string]any{"ledger": "coordinator", "op": len(ops), "metrics": s.coord})
			if err != nil {
				return result{}, err
			}
			fmt.Printf("%s\n", line)
		}
	}
	res := result{Correct: true, Metrics: metrics{}}
	var wall, cpu, rss, rate []float64
	for _, s := range ops {
		res.Attempted += s.attempted
		res.Failed += s.failed
		if s.badCheck {
			res.Correct = false
		}
		wall = append(wall, s.wall)
		cpu = append(cpu, s.cpu)
		rss = append(rss, s.rssMB)
		rate = append(rate, float64(s.items)/s.wall)
	}
	res.Metrics.set("wall_s", median(wall), "s")
	res.Metrics.set("items_per_s", median(rate), "1/s")
	res.Metrics.set("cpu_s", median(cpu), "s")
	res.Metrics.set("peak_rss_mb", median(rss), "MiB")
	res.Metrics.set("setup_s", setup, "s")
	fmt.Fprintf(b.log, "perfbench: %d ops, %d attempted, %d failed\n", len(ops), res.Attempted, res.Failed)
	return res, nil
}

// traced is the separate traced run: one setup and one untraced
// operation (its wall time is the baseline for trace.overhead_s), then
// the in-process replica with a span around every layer call.
func traced(b *bench, w workload) (result, error) {
	if _, err := runSetups(b, w, 1); err != nil {
		return result{}, err
	}
	s, err := w.op(b)
	if err != nil {
		return result{}, err
	}
	m := zeroLayerMetrics()
	for k, v := range s.coord {
		m[k] = v
	}
	l := newLedger(fmt.Sprintf("%s/seed=%d/%d", filepath.Base(b.dir), b.seed, time.Now().UnixNano()))
	root := l.begin("run", 0)
	terr := w.trace(b, l, root, m)
	l.end(root)
	if terr != nil {
		return result{}, fmt.Errorf("traced run: %w", terr)
	}
	total, _ := l.layerTimes()
	m.set("trace.overhead_s", total["run"].Seconds()-s.wall, "s")
	if err := l.write(b.path("spans.jsonl")); err != nil {
		return result{}, err
	}
	return result{Correct: !s.badCheck, Attempted: s.attempted, Failed: s.failed, Metrics: m}, nil
}

// layerMetricUnits lists every per-layer metric with its unit. A traced
// run prints all of them; a layer the workload does not exercise reads 0
// (see BENCHMARK.json for which workloads each layer applies to).
var layerMetricUnits = [][2]string{
	{"coordinator.attempts", "count"},
	{"coordinator.shard_s_sum", "s"},
	{"coordinator.shard_imbalance", "ratio"},
	{"coordinator.overhead_s", "s"},
	{"campaign.tasks", "count"},
	{"campaign.busy_s", "s"},
	{"campaign.util", "ratio"},
	{"campaign.emit_wait_s", "s"},
	{"sim.rounds", "count"},
	{"sim.self_s", "s"},
	{"sim.ns_per_round", "ns"},
	{"attack.plan_calls", "count"},
	{"attack.plan_s", "s"},
	{"attack.plan_ns.p50", "ns"},
	{"attack.plan_ns.p99", "ns"},
	{"cache.gets", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.get_us.p50", "us"},
	{"cache.get_us.p99", "us"},
	{"cache.puts", "count"},
	{"cache.bytes", "bytes"},
	{"results.records", "count"},
	{"results.read_s", "s"},
	{"results.parse_s", "s"},
	{"results.parse_allocs_per_record", "allocs"},
	{"results.reorder_s", "s"},
	{"results.spilled", "count"},
	{"results.max_held", "count"},
	{"results.encode_s", "s"},
	{"results.bytes_out", "bytes"},
	{"scenarios.faults_s", "s"},
	{"scenarios.platoon_s", "s"},
	{"scenarios.consensus_s", "s"},
	{"scenarios.track_s", "s"},
	{"verdict.eval_s", "s"},
	{"verdict.fuzz_s", "s"},
	{"verdict.fail", "count"},
	{"trace.overhead_s", "s"},
}

func zeroLayerMetrics() metrics {
	m := metrics{}
	for _, mu := range layerMetricUnits {
		m.set(mu[0], 0, mu[1])
	}
	return m
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
