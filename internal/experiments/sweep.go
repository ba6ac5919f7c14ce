package experiments

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"sensorfusion/internal/render"
	"sensorfusion/internal/results"
)

// Section IV-A describes the full simulation campaign behind Table I:
// "the number of sensors vary from three to five; the lengths of the
// intervals are increased from 5 to 20 by increments of 3 for each
// interval. Finally, the number of attacked sensors is increased from
// one to ceil(n/2)-1." Table I shows eight representative rows; this
// file enumerates the whole campaign so any slice of it can be run.

// SweepLengths are the interval lengths the paper sweeps: 5..20 step 3.
func SweepLengths() []float64 { return []float64{5, 8, 11, 14, 17, 20} }

// EnumerateSweepConfigs yields every (widths multiset, fa) combination of
// the paper's campaign: n in [3,5], widths non-decreasing from
// SweepLengths, fa in [1, ceil(n/2)-1]. The non-decreasing constraint
// enumerates multisets (schedules only depend on the multiset).
func EnumerateSweepConfigs() []Table1Config {
	return EnumerateSweepConfigsFrom(SweepLengths())
}

// ParseLengths parses a comma-separated interval-length list ("5,8,11")
// into the strictly increasing positive grid EnumerateSweepConfigsFrom
// accepts — the CLI's -lengths syntax.
func ParseLengths(s string) ([]float64, error) {
	var out []float64
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return nil, fmt.Errorf("experiments: bad length %q in %q", field, s)
		}
		if v <= 0 {
			return nil, fmt.Errorf("experiments: length %g in %q not positive", v, s)
		}
		if len(out) > 0 && v <= out[len(out)-1] {
			return nil, fmt.Errorf("experiments: lengths %q not strictly increasing at %g", s, v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: empty length list %q", s)
	}
	return out, nil
}

// EnumerateSweepConfigsFrom enumerates the paper's campaign over an
// arbitrary interval-length grid (strictly increasing, positive) in
// place of SweepLengths — the knob that makes "edit one grid parameter"
// a one-flag spec change for the incremental `update` workflow. The
// enumeration ORDER for configurations present in both grids is stable
// under grid edits that preserve the relative order of shared lengths,
// which is what lets the spec differ attribute unchanged digests to
// unchanged indices.
func EnumerateSweepConfigsFrom(lengths []float64) []Table1Config {
	var out []Table1Config
	for n := 3; n <= 5; n++ {
		maxFa := (n+1)/2 - 1
		widths := make([]float64, n)
		var rec func(k, start int)
		rec = func(k, start int) {
			if k == n {
				for fa := 1; fa <= maxFa; fa++ {
					cfg := Table1Config{
						Name:   fmt.Sprintf("n=%d, fa=%d, L=%v", n, fa, widths),
						Widths: append([]float64(nil), widths...),
						Fa:     fa,
					}
					out = append(out, cfg)
				}
				return
			}
			for idx := start; idx < len(lengths); idx++ {
				widths[k] = lengths[idx]
				rec(k+1, idx)
			}
		}
		rec(0, 0)
	}
	return out
}

// SweepSample draws k configurations uniformly from the full campaign.
func SweepSample(k int, rng *rand.Rand) []Table1Config {
	return sweepSampleFrom(EnumerateSweepConfigs(), k, rng)
}

// sweepSampleFrom draws k configurations uniformly from an enumeration.
func sweepSampleFrom(all []Table1Config, k int, rng *rand.Rand) []Table1Config {
	if k >= len(all) {
		return all
	}
	rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	return all[:k]
}

// SweepResult is the outcome of running a campaign slice.
type SweepResult struct {
	Rows []Table1Row
	// Violations lists configs where Descending came out better for the
	// system than Ascending — the paper (and our reproduction) observed
	// none: "the expected length under the Descending schedule was never
	// smaller than that under Ascending".
	Violations []string
}

// ShardSpec selects one deterministic partition of the campaign
// enumeration for multi-process or multi-host execution, in one of two
// forms. The MODULAR form (Count > 0) runs the configurations whose
// global enumeration index is congruent to Index modulo Count — equal
// counts, trivially composable, the form manual sharding uses. The
// EXPLICIT form (Indices non-empty) runs exactly the listed global
// indices — the form the cost-balancing coordinator dispatches, since a
// cost-balanced partition is not a residue class. The zero value means
// "unsharded". Records produced under either form keep their GLOBAL
// index, so the merge of a full partition's outputs is byte-identical
// to the unsharded stream.
type ShardSpec struct {
	Index, Count int
	// Indices, when non-empty, selects the explicit index set (strictly
	// increasing, non-negative). Mutually exclusive with Count > 0.
	Indices []int
}

// Enabled reports whether the spec selects an actual partition.
func (s ShardSpec) Enabled() bool { return s.Count > 0 || len(s.Indices) > 0 }

func (s ShardSpec) validate() error {
	if len(s.Indices) > 0 {
		if s.Count > 0 {
			return fmt.Errorf("experiments: shard spec has both a modular form (%d/%d) and an explicit index set", s.Index, s.Count)
		}
		last := -1
		for _, idx := range s.Indices {
			if idx <= last {
				return fmt.Errorf("experiments: shard index set not strictly increasing at %d", idx)
			}
			last = idx
		}
		return nil
	}
	if !s.Enabled() {
		return nil
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("experiments: shard %d/%d out of range (want 0 <= i < m)", s.Index, s.Count)
	}
	return nil
}

// String renders the spec in the form ParseShard reads back: i/m for
// the modular form, the compact index-set form otherwise.
func (s ShardSpec) String() string {
	if len(s.Indices) > 0 {
		return FormatIndexSet(s.Indices)
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// ParseShard parses a shard spec: the modular "i/m" syntax (0-based
// index), or an explicit index set in FormatIndexSet's range form
// ("0-5,9,17-20"; a singleton needs its trailing comma, "5,"). A bare
// integer is rejected as ambiguous between the two forms.
func ParseShard(spec string) (ShardSpec, error) {
	if spec == "" {
		return ShardSpec{}, nil
	}
	if i, m, isModular := strings.Cut(spec, "/"); isModular {
		idx, err1 := strconv.Atoi(strings.TrimSpace(i))
		cnt, err2 := strconv.Atoi(strings.TrimSpace(m))
		if err1 != nil || err2 != nil || cnt <= 0 {
			return ShardSpec{}, fmt.Errorf("experiments: bad shard %q: want i/m with integer i and m > 0", spec)
		}
		s := ShardSpec{Index: idx, Count: cnt}
		if err := s.validate(); err != nil {
			return ShardSpec{}, err
		}
		return s, nil
	}
	if !strings.ContainsAny(spec, ",-") {
		return ShardSpec{}, fmt.Errorf("experiments: bad shard %q: want i/m (e.g. 0/4) or an index set (e.g. 0-5,9)", spec)
	}
	indices, err := ParseIndexSet(spec)
	if err != nil {
		return ShardSpec{}, err
	}
	return ShardSpec{Indices: indices}, nil
}

// CampaignOptions configures a full, sampled, or sharded run of the
// Section IV-A campaign through the parallel engine.
type CampaignOptions struct {
	// Table1Options tunes each configuration's evaluation, including the
	// engine's Parallel worker bound, root Seed, and result Cache.
	Table1Options
	// SampleK, when positive, draws that many configurations from the
	// full enumeration (seeded from Seed) instead of running all of them.
	SampleK int
	// Configs, when non-nil, runs exactly this slice of the campaign
	// instead of the enumeration (SampleK is then ignored).
	Configs []Table1Config
	// Lengths, when non-nil, replaces SweepLengths as the interval-length
	// grid the enumeration (and SampleK sampling) draws from. Ignored
	// when Configs is set. This is the spec knob `repro update` edits.
	Lengths []float64
	// Shard, when enabled, restricts the run to one deterministic
	// partition of the (possibly sampled or explicit) configuration
	// list. Sharding composes after sampling: every shard of a seeded
	// sample partitions the same sample.
	Shard ShardSpec
}

// plan resolves the options to the configuration slice to run and each
// configuration's global enumeration index (the record index that
// survives sharding and merging).
func (opts CampaignOptions) plan() ([]Table1Config, []int, error) {
	if err := opts.Shard.validate(); err != nil {
		return nil, nil, err
	}
	cfgs := opts.Configs
	if cfgs == nil {
		lengths := opts.Lengths
		if lengths == nil {
			lengths = SweepLengths()
		}
		cfgs = EnumerateSweepConfigsFrom(lengths)
		if opts.SampleK > 0 {
			cfgs = sweepSampleFrom(cfgs, opts.SampleK, rand.New(rand.NewSource(opts.Seed)))
		}
	}
	if !opts.Shard.Enabled() {
		global := make([]int, len(cfgs))
		for k := range global {
			global[k] = k
		}
		return cfgs, global, nil
	}
	var (
		mine   []Table1Config
		global []int
	)
	if len(opts.Shard.Indices) > 0 {
		for _, k := range opts.Shard.Indices {
			if k >= len(cfgs) {
				return nil, nil, fmt.Errorf("experiments: shard index %d outside the %d planned configurations", k, len(cfgs))
			}
			mine = append(mine, cfgs[k])
			global = append(global, k)
		}
		return mine, global, nil
	}
	for k := opts.Shard.Index; k < len(cfgs); k += opts.Shard.Count {
		mine = append(mine, cfgs[k])
		global = append(global, k)
	}
	return mine, global, nil
}

// PlannedCount resolves the options to the number of configurations the
// run will actually evaluate (after sampling and sharding) — the one
// source of truth for progress banners, so the CLI cannot drift from
// plan()'s partition scheme.
func (opts CampaignOptions) PlannedCount() (int, error) {
	cfgs, _, err := opts.plan()
	if err != nil {
		return 0, err
	}
	return len(cfgs), nil
}

// streamCampaignRows is the campaign generator's streaming core: rows
// flow to emit in global-enumeration order as engine tasks complete. It
// shares table1Stream's part-level scheduling, so heavy configurations
// (and single-configuration shards) parallelize internally too.
func streamCampaignRows(opts CampaignOptions, emit func(global int, row Table1Row) error) error {
	o := opts.Table1Options.withDefaults()
	cfgs, global, err := opts.plan()
	if err != nil {
		return err
	}
	return table1Stream(cfgs, o, func(k int, row Table1Row) error {
		return emit(global[k], row)
	})
}

// RunCampaign evaluates a slice of the paper's Section IV-A campaign
// through the parallel engine: the explicit Configs slice if given, else
// a seeded SampleK-sized sample, else the whole enumeration, optionally
// restricted to one shard. For a fixed Seed the result is byte-identical
// for every Parallel value.
func RunCampaign(opts CampaignOptions) (SweepResult, error) {
	var res SweepResult
	if err := streamCampaignRows(opts, func(_ int, row Table1Row) error {
		res.Rows = append(res.Rows, row)
		return nil
	}); err != nil {
		return SweepResult{}, err
	}
	res.Violations = rowViolations(res.Rows)
	return res, nil
}

// StreamCampaign evaluates the campaign slice and streams one typed
// record per configuration into sink, in global-enumeration order. It
// returns the never-smaller violations observed in this run (this shard
// only, under a sharded run — the merge subcommand re-runs the check
// over the full merged set). The sink is not flushed; the caller owns
// the stream's lifecycle.
func StreamCampaign(opts CampaignOptions, sink results.Sink) ([]string, error) {
	o := opts.Table1Options.withDefaults()
	var violations []string
	if err := streamCampaignRows(opts, func(global int, row Table1Row) error {
		if v, bad := rowViolation(row); bad {
			violations = append(violations, v)
		}
		return sink.Write(table1Record("campaign", global, row, o))
	}); err != nil {
		return nil, err
	}
	return violations, nil
}

// neverSmallerEps tolerates float jitter in the Desc >= Asc comparison.
const neverSmallerEps = 1e-9

func rowViolation(r Table1Row) (string, bool) {
	if r.Desc < r.Asc-neverSmallerEps {
		return fmt.Sprintf("%s: desc %.3f < asc %.3f", r.Config.Name, r.Desc, r.Asc), true
	}
	return "", false
}

func rowViolations(rows []Table1Row) []string {
	var out []string
	for _, r := range rows {
		if v, bad := rowViolation(r); bad {
			out = append(out, v)
		}
	}
	return out
}

// RecordNeverSmaller checks the paper's never-smaller claim on ONE
// record: a record carrying asc and desc metrics must satisfy
// desc >= asc. It returns the violation description and true when the
// claim fails. Records without the metrics pass vacuously. This is the
// streaming primitive behind CheckNeverSmaller and the coordinator's
// per-record merge check — bounded-memory merges verify the claim as
// records flow, never holding the set.
func RecordNeverSmaller(rec results.Record) (string, bool) {
	asc, okA := rec.Metric("asc")
	desc, okD := rec.Metric("desc")
	if okA && okD && desc < asc-neverSmallerEps {
		return fmt.Sprintf("%s: desc %.3f < asc %.3f", rec.Config, desc, asc), true
	}
	return "", false
}

// CheckNeverSmaller re-runs the paper's never-smaller claim over a
// merged record set: every record carrying asc and desc metrics must
// satisfy desc >= asc. This is how a sharded campaign asserts the claim
// globally — each shard checks its own slice while running, and the
// merge re-checks the union.
func CheckNeverSmaller(recs []results.Record) []string {
	var out []string
	for _, rec := range recs {
		if v, bad := RecordNeverSmaller(rec); bad {
			out = append(out, v)
		}
	}
	return out
}

// NeverSmallerSink wraps a sink and re-checks the never-smaller claim
// on every record streaming through — the bounded-memory replacement
// for materializing a merged set just to run CheckNeverSmaller over it.
type NeverSmallerSink struct {
	// Next receives every record unchanged.
	Next results.Sink
	// Violations accumulates one description per failing record, in
	// stream order.
	Violations []string
}

// Write checks and forwards one record.
func (s *NeverSmallerSink) Write(rec results.Record) error {
	if v, bad := RecordNeverSmaller(rec); bad {
		s.Violations = append(s.Violations, v)
	}
	return s.Next.Write(rec)
}

// Flush flushes the wrapped sink.
func (s *NeverSmallerSink) Flush() error { return s.Next.Flush() }

// SweepReport renders a campaign slice.
func SweepReport(res SweepResult) string {
	var t render.Table
	t.Header = []string{"config", "E|S| Asc", "E|S| Desc", "gap", "no attack"}
	for _, r := range res.Rows {
		t.AddRow(r.Config.Name,
			fmt.Sprintf("%.2f", r.Asc),
			fmt.Sprintf("%.2f", r.Desc),
			fmt.Sprintf("%.2f", r.Desc-r.Asc),
			fmt.Sprintf("%.2f", r.NoAttack))
	}
	s := t.String()
	if len(res.Violations) == 0 {
		s += "\nDescending was never better than Ascending (matches the paper).\n"
	} else {
		s += fmt.Sprintf("\n%d VIOLATIONS of the never-smaller observation:\n", len(res.Violations))
		for _, v := range res.Violations {
			s += "  " + v + "\n"
		}
	}
	return s
}
