// Command benchjson converts `go test -bench` text output into a JSON
// artifact so CI can accumulate a per-PR performance trajectory, and
// compares a fresh run against a committed baseline.
//
//	go test -run='^$' -bench=. -benchtime=1x ./... | tee bench.txt
//	benchjson -in bench.txt -out BENCH_netsim.json
//	benchjson -in bench.txt -baseline BENCH_netsim.json -warn-pct 30
//
// The output is a single JSON object with the parse timestamp left to
// the consumer (CI records it) and one entry per benchmark:
//
//	{"benchmarks": [{"name": "BenchmarkE22NetSim-8", "iterations": 1,
//	  "ns_per_op": 123456, "bytes_per_op": 789, "allocs_per_op": 12}, ...]}
//
// Every other column a benchmark reports with b.ReportMetric (the
// engine work counters of E27–E31: frame-starts/op, crossings/op,
// gain-refresh-pairs/op) goes into the entry's "metrics" object, keyed
// by its unit.
//
// With -baseline, every benchmark present in both runs is compared by
// ns/op (names matched with the -GOMAXPROCS suffix stripped, so runs
// from different machines line up) and regressions beyond -warn-pct are
// printed as GitHub "::warning::" annotations. Warnings do not fail the
// build — a 1-iteration smoke pass is noisy by design — they put the
// number in front of the reviewer.
//
// Two opt-in gates turn regressions into failures (exit 1 with
// "::error::" annotations). -fail-allocs-pct gates allocs/op across
// every matched benchmark: the allocation count of a deterministic
// simulation is machine-independent, so this gate holds across runner
// hardware. -fail-pct gates ns/op but only for benchmarks whose name
// contains -fail-match — reserve it for the one hot-path benchmark a PR
// makes a promise about (e.g. the probe layer's ≤2% when-off bar on
// BenchmarkE27LargeFloor/indexed), where a timing excursion is signal.
// A third gate is always on under -baseline: every extra metric the
// baseline entry records must read exactly its baseline value. Those
// are work counters of seeded runs, so any difference, up or down, is
// a change in what the simulation did, not noise; a benchmark run at a
// different -benchtime than its baseline averages other seeds, so the
// baseline rows come from a pass shaped like CI's.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line.
type Bench struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds the b.ReportMetric columns, by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Artifact is the JSON document benchjson emits.
type Artifact struct {
	Commit     string  `json:"commit,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
}

// parseLine decodes one `BenchmarkName-N  iters  123 ns/op [456 B/op 7 allocs/op]`
// line, reporting ok=false for non-benchmark lines (headers, PASS/ok).
func parseLine(line string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Bench{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		case "MB/s":
			// SetBytes throughput is a timing, not a counter.
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	if b.NsPerOp == 0 {
		return Bench{}, false
	}
	return b, true
}

// baseName strips the trailing -N GOMAXPROCS suffix from a benchmark
// name so results from machines with different core counts compare.
func baseName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// compare holds current against baseline, returning one warning line
// per benchmark whose ns/op regressed by more than warnPct percent and
// the number of benchmarks that actually matched a baseline entry (so
// the caller can tell a clean pass from a dead comparison).
func compare(current, baseline []Bench, warnPct float64) (warnings []string, matched int) {
	base := make(map[string]Bench, len(baseline))
	for _, b := range baseline {
		base[baseName(b.Name)] = b
	}
	for _, c := range current {
		b, ok := base[baseName(c.Name)]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		matched++
		if pct := 100 * (c.NsPerOp - b.NsPerOp) / b.NsPerOp; pct > warnPct {
			warnings = append(warnings,
				fmt.Sprintf("::warning::%s regressed %.0f%%: %.0f ns/op vs baseline %.0f ns/op",
					baseName(c.Name), pct, c.NsPerOp, b.NsPerOp))
		}
	}
	return warnings, matched
}

// gate applies the hard limits, returning one "::error::" line per
// violation. nsPct gates ns/op on benchmarks whose base name contains
// any of the comma-separated match substrings (empty matches none);
// allocsPct gates allocs/op on every benchmark the baseline also
// measured allocations for. Zero pct disables the respective gate.
// Every extra metric a baseline entry records must be reported with
// exactly its value.
func gate(current, baseline []Bench, match string, nsPct, allocsPct float64) []string {
	base := make(map[string]Bench, len(baseline))
	for _, b := range baseline {
		base[baseName(b.Name)] = b
	}
	var matches []string
	for _, m := range strings.Split(match, ",") {
		if m = strings.TrimSpace(m); m != "" {
			matches = append(matches, m)
		}
	}
	matchesName := func(name string) bool {
		for _, m := range matches {
			if strings.Contains(name, m) {
				return true
			}
		}
		return false
	}
	var errs []string
	for _, c := range current {
		name := baseName(c.Name)
		b, ok := base[name]
		if !ok {
			continue
		}
		if nsPct > 0 && matchesName(name) && b.NsPerOp > 0 {
			if pct := 100 * (c.NsPerOp - b.NsPerOp) / b.NsPerOp; pct > nsPct {
				errs = append(errs,
					fmt.Sprintf("::error::%s ns/op regressed %.1f%% (limit %.1f%%): %.0f vs baseline %.0f",
						name, pct, nsPct, c.NsPerOp, b.NsPerOp))
			}
		}
		if allocsPct > 0 && b.AllocsPerOp > 0 {
			if pct := 100 * float64(c.AllocsPerOp-b.AllocsPerOp) / float64(b.AllocsPerOp); pct > allocsPct {
				errs = append(errs,
					fmt.Sprintf("::error::%s allocs/op regressed %.1f%% (limit %.1f%%): %d vs baseline %d",
						name, pct, allocsPct, c.AllocsPerOp, b.AllocsPerOp))
			}
		}
		units := make([]string, 0, len(b.Metrics))
		for unit := range b.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
		for _, unit := range units {
			want := b.Metrics[unit]
			if got, ok := c.Metrics[unit]; !ok {
				errs = append(errs, fmt.Sprintf("::error::%s reports no %s (baseline %s)", name, unit, num(want)))
			} else if got != want {
				errs = append(errs, fmt.Sprintf("::error::%s %s is %s, baseline %s: a work counter must match exactly",
					name, unit, num(got), num(want)))
			}
		}
	}
	return errs
}

func main() {
	in := flag.String("in", "-", "benchmark text output to parse (- for stdin)")
	out := flag.String("out", "-", "JSON artifact path (- for stdout)")
	commit := flag.String("commit", os.Getenv("GITHUB_SHA"), "commit hash to stamp into the artifact")
	baseline := flag.String("baseline", "", "baseline artifact to compare against (warn on ns/op regressions)")
	warnPct := flag.Float64("warn-pct", 30, "regression percentage beyond which -baseline warns")
	failMatch := flag.String("fail-match", "", "comma-separated substrings of benchmark names the -fail-pct ns/op gate applies to")
	failPct := flag.Float64("fail-pct", 0, "ns/op regression percentage beyond which -fail-match benchmarks fail the run (0 disables)")
	failAllocsPct := flag.Float64("fail-allocs-pct", 0, "allocs/op regression percentage beyond which any benchmark fails the run (0 disables)")
	flag.Parse()

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	art := Artifact{Commit: *commit}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			art.Benchmarks = append(art.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(art.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		os.Exit(1)
	}
	var gateErrs []string
	if *baseline != "" {
		bdata, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var base Artifact
		if err := json.Unmarshal(bdata, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad baseline %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		// Warnings go to stderr: stdout may be the JSON artifact itself
		// (-out "-"), and the GitHub runner scans both streams for
		// ::warning:: annotations.
		warnings, matched := compare(art.Benchmarks, base.Benchmarks, *warnPct)
		for _, w := range warnings {
			fmt.Fprintln(os.Stderr, w)
		}
		if matched == 0 {
			fmt.Fprintf(os.Stderr, "::warning::no benchmark in this run matches the baseline %s — the regression guard compared nothing\n", *baseline)
		} else if len(warnings) == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: no regression beyond %.0f%% against %s (%d benchmarks compared)\n",
				*warnPct, *baseline, matched)
		}
		gateErrs = gate(art.Benchmarks, base.Benchmarks, *failMatch, *failPct, *failAllocsPct)
		for _, e := range gateErrs {
			fmt.Fprintln(os.Stderr, e)
		}
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The artifact is written before the gate verdict lands, so a failed
	// run still uploads its numbers for the post-mortem.
	if len(gateErrs) > 0 {
		os.Exit(1)
	}
}
