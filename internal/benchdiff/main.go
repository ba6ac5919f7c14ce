// Command benchdiff compares two dated benchmark records (the
// BENCH_<date>.json files `make bench-json` writes as test2json event
// streams) and fails when performance regressed: the geometric mean of
// the per-benchmark new/old ns/op ratios above the threshold (default
// 1.20, i.e. a >20% slowdown), or ANY benchmark whose allocs/op grew.
// Only benchmarks present in both files are compared; ns/op from
// -benchtime 1x smoke runs is noisy per benchmark, which is exactly why
// the time gate is the geomean across all of them while the
// (deterministic) allocation counts are gated individually.
//
// -pin-zero-allocs REGEX additionally pins the matching benchmarks to
// exactly 0 allocs/op in the NEW record — an absolute gate, independent
// of the old record, for paths whose zero-allocation property is a
// documented invariant (the round engine, the attacker plan search). A
// regexp that matches no benchmark fails too: a renamed benchmark must
// not silently unarm the pin.
//
// Usage:
//
//	benchdiff [-max-ratio 1.20] [-pin-zero-allocs REGEX] OLD.json NEW.json
//
// `make bench-diff` wires it to the two most recent BENCH_*.json files
// and `make ci` runs it whenever a prior day's record exists, so a PR
// that slows a headline benchmark down or starts allocating on a
// zero-alloc path fails the gate with the offending benchmarks named.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's measurements from one record file.
type result struct {
	NsPerOp  float64
	Allocs   float64
	HasAlloc bool
}

// event is the subset of the test2json stream benchdiff reads.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Test    string `json:"Test"`
	Output  string `json:"Output"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.e+-]+) ns/op(.*)$`)
var allocField = regexp.MustCompile(`([0-9.e+-]+) allocs/op`)

// parseBench extracts benchmark results from a test2json event stream.
// A single benchmark result line is frequently SPLIT across output
// events — the testing package flushes the benchmark's name before
// running it and the measurements after — so fragments are reassembled
// per (package, test) until a newline completes the line. The same
// benchmark name appearing more than once (re-runs, multiple packages)
// keeps the last occurrence, matching what a human reading the file
// bottom-up would quote.
func parseBench(r *bufio.Scanner) (map[string]result, error) {
	out := make(map[string]result)
	pending := make(map[string]string) // (package, test) -> partial output line
	take := func(line string) {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			return
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return
		}
		res := result{NsPerOp: ns}
		if am := allocField.FindStringSubmatch(m[3]); am != nil {
			if a, err := strconv.ParseFloat(am[1], 64); err == nil {
				res.Allocs = a
				res.HasAlloc = true
			}
		}
		out[m[1]] = res
	}
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if line == "" {
			continue
		}
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("benchdiff: not a test2json stream: %w", err)
		}
		if ev.Action != "output" {
			continue
		}
		key := ev.Package + "\x00" + ev.Test
		buf := pending[key] + ev.Output
		for {
			nl := strings.IndexByte(buf, '\n')
			if nl < 0 {
				break
			}
			take(buf[:nl])
			buf = buf[nl+1:]
		}
		pending[key] = buf
	}
	for _, buf := range pending {
		take(buf)
	}
	return out, r.Err()
}

func parseFile(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	res, err := parseBench(sc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// diagnosis is the outcome of one comparison.
type diagnosis struct {
	Compared    int
	Geomean     float64  // geometric mean of new/old ns/op ratios
	AllocGrowth []string // benchmarks whose allocs/op grew, formatted
}

// compare evaluates new against old. Benchmarks missing from either
// side are ignored (new benchmarks have no baseline; removed ones no
// current number).
func compare(old, cur map[string]result) diagnosis {
	var d diagnosis
	logSum := 0.0
	names := make([]string, 0, len(cur))
	for name := range cur {
		if _, ok := old[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		o, n := old[name], cur[name]
		if o.NsPerOp > 0 && n.NsPerOp > 0 {
			logSum += math.Log(n.NsPerOp / o.NsPerOp)
			d.Compared++
		}
		if o.HasAlloc && n.HasAlloc && n.Allocs > o.Allocs {
			d.AllocGrowth = append(d.AllocGrowth,
				fmt.Sprintf("%s: %.0f -> %.0f allocs/op", name, o.Allocs, n.Allocs))
		}
	}
	if d.Compared > 0 {
		d.Geomean = math.Exp(logSum / float64(d.Compared))
	}
	return d
}

// checkZeroAllocs returns one formatted failure per benchmark matching
// re that does not report exactly 0 allocs/op in cur, plus a failure if
// nothing matched at all (the pin must never unarm silently).
func checkZeroAllocs(cur map[string]result, re *regexp.Regexp) []string {
	names := make([]string, 0, len(cur))
	for name := range cur {
		if re.MatchString(name) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return []string{fmt.Sprintf("pin-zero-allocs %q matched no benchmark in the new record", re)}
	}
	sort.Strings(names)
	var fails []string
	for _, name := range names {
		switch r := cur[name]; {
		case !r.HasAlloc:
			fails = append(fails, fmt.Sprintf("%s: no allocs/op reported (run with -benchmem)", name))
		case r.Allocs != 0:
			fails = append(fails, fmt.Sprintf("%s: %.0f allocs/op, pinned to 0", name, r.Allocs))
		}
	}
	return fails
}

func main() {
	maxRatio := flag.Float64("max-ratio", 1.20, "fail when the geomean new/old ns/op ratio exceeds this")
	pinZero := flag.String("pin-zero-allocs", "", "regexp of benchmarks that must report exactly 0 allocs/op in NEW.json")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-max-ratio R] OLD.json NEW.json")
		os.Exit(2)
	}
	oldPath, newPath := flag.Arg(0), flag.Arg(1)
	old, err := parseFile(oldPath)
	if err == nil && len(old) == 0 {
		err = fmt.Errorf("%s holds no benchmark results", oldPath)
	}
	cur, err2 := parseFile(newPath)
	if err2 == nil && len(cur) == 0 {
		err2 = fmt.Errorf("%s holds no benchmark results", newPath)
	}
	for _, e := range []error{err, err2} {
		if e != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", e)
			os.Exit(1)
		}
	}
	d := compare(old, cur)
	failed := false
	if d.Compared == 0 {
		// Records from machines with different GOMAXPROCS carry different
		// name suffixes and share no benchmark; the zero-alloc pin below
		// reads only NEW and still runs.
		fmt.Printf("benchdiff: %s vs %s: no common benchmarks; nothing to compare\n", oldPath, newPath)
	} else {
		fmt.Printf("benchdiff: %s -> %s: %d benchmarks, geomean ns/op ratio %.3f (gate %.2f)\n",
			oldPath, newPath, d.Compared, d.Geomean, *maxRatio)
	}
	if d.Geomean > *maxRatio {
		fmt.Fprintf(os.Stderr, "benchdiff: REGRESSION: geomean ns/op ratio %.3f exceeds %.2f\n", d.Geomean, *maxRatio)
		failed = true
	}
	for _, g := range d.AllocGrowth {
		fmt.Fprintf(os.Stderr, "benchdiff: ALLOC GROWTH: %s\n", g)
		failed = true
	}
	if *pinZero != "" {
		re, err := regexp.Compile(*pinZero)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: -pin-zero-allocs: %v\n", err)
			os.Exit(2)
		}
		for _, f := range checkZeroAllocs(cur, re) {
			fmt.Fprintf(os.Stderr, "benchdiff: NONZERO ALLOCS: %s\n", f)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
