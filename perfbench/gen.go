package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"sensorfusion/internal/experiments"
	"sensorfusion/internal/results"
)

func shardPaths(b *bench) []string {
	paths := make([]string, b.size.mergeShards)
	for i := range paths {
		paths[i] = b.path(fmt.Sprintf("setup/shard-%d.jsonl.gz", i))
	}
	return paths
}

// generateShards writes the merge workload's inputs from the seed:
// campaign-shaped records spread over gzip shard files, plus the
// expected merge output (every record in index order). The first
// shards interleave the leading indices, so their records arrive within
// the merge's reorder window; the last shard holds one contiguous tail
// range, whose records arrive far ahead of the window and take the
// spill path.
func generateShards(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	n, shards := b.size.mergeRecords, b.size.mergeShards
	tail := n / shards
	head := n - tail
	lengths := experiments.SweepLengths()

	files := make([]*os.File, shards)
	bufs := make([]*bufio.Writer, shards)
	zips := make([]*gzip.Writer, shards)
	sinks := make([]*results.JSONL, shards)
	for i, p := range shardPaths(b) {
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		defer f.Close()
		files[i] = f
		bufs[i] = bufio.NewWriter(f)
		zips[i], _ = gzip.NewWriterLevel(bufs[i], gzip.BestSpeed) // fails only for an invalid level
		sinks[i] = results.NewJSONL(zips[i])
	}
	ef, err := os.Create(b.path("setup/expected.jsonl"))
	if err != nil {
		return err
	}
	defer ef.Close()
	ew := bufio.NewWriter(ef)
	expected := results.NewJSONL(ew)

	for i := 0; i < n; i++ {
		rec := campaignRecord(rng, lengths, i, b.seed)
		shard := shards - 1
		if i < head {
			shard = i % (shards - 1)
		}
		if err := sinks[shard].Write(rec); err != nil {
			return err
		}
		if err := expected.Write(rec); err != nil {
			return err
		}
	}
	for i := range files {
		if err := zips[i].Close(); err != nil {
			return err
		}
		if err := bufs[i].Flush(); err != nil {
			return err
		}
		if err := files[i].Close(); err != nil {
			return err
		}
	}
	if err := ew.Flush(); err != nil {
		return err
	}
	return ef.Close()
}

// campaignRecord draws one record shaped like a campaign configuration's:
// a sorted width multiset of n = 3..5 sensors from the paper's length
// grid, fa attacked sensors, and metrics that satisfy the never-smaller
// claim (desc >= asc) the merge re-checks.
func campaignRecord(rng *rand.Rand, lengths []float64, index int, seed int64) results.Record {
	n := 3 + rng.Intn(3)
	widths := make([]float64, n)
	for k := range widths {
		widths[k] = lengths[rng.Intn(len(lengths))]
	}
	sort.Float64s(widths)
	f := (n+1)/2 - 1
	fa := 1 + rng.Intn(f)
	cfg := fmt.Sprintf("n=%d, fa=%d, L=%v", n, fa, widths)
	noAttack := widths[0] * (0.5 + 0.5*rng.Float64())
	asc := noAttack + rng.Float64()*widths[n-1]
	desc := asc + rng.Float64()*widths[n-1]
	combos := 1
	for _, w := range widths {
		combos *= int(w)/2 + 1
	}
	return results.Record{
		Kind:   "campaign",
		Index:  index,
		Config: cfg,
		Digest: results.Digest(fmt.Sprintf("perfbench|%s|seed=%d|index=%d", cfg, seed, index)),
		Seed:   seed,
		Metrics: []results.Metric{
			{Key: "asc", Val: asc},
			{Key: "desc", Val: desc},
			{Key: "no_attack", Val: noAttack},
			{Key: "combos", Val: float64(combos)},
			{Key: "detections_asc", Val: 0},
			{Key: "detections_desc", Val: 0},
			{Key: "paper_asc", Val: 0},
			{Key: "paper_desc", Val: 0},
		},
	}
}

// warmConfigs is the number of configurations campaign-warm enumerates.
func warmConfigs(b *bench) int {
	lengths, err := experiments.ParseLengths(b.size.warmLengths)
	if err != nil {
		return 0
	}
	return len(experiments.EnumerateSweepConfigsFrom(lengths))
}
