package main

import (
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkE22NetSim-8   \t1\t 123456789 ns/op\t  456 B/op\t  12 allocs/op")
	if !ok {
		t.Fatal("benchmark line not recognised")
	}
	if b.Name != "BenchmarkE22NetSim-8" || b.Iterations != 1 ||
		b.NsPerOp != 123456789 || b.BytesPerOp != 456 || b.AllocsPerOp != 12 {
		t.Errorf("parsed %+v", b)
	}
	if b, ok := parseLine("BenchmarkCancelChurn-4  100  5034 ns/op"); !ok || b.NsPerOp != 5034 {
		t.Errorf("mem-stat-free line: ok=%v %+v", ok, b)
	}
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \trepro\t12.3s",
		"Benchmark name without numbers",
		"",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("non-benchmark line parsed: %q", line)
		}
	}
}

func TestBaseName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkE22NetSim-8":  "BenchmarkE22NetSim",
		"BenchmarkE22NetSim-16": "BenchmarkE22NetSim",
		"BenchmarkE22NetSim":    "BenchmarkE22NetSim",
		"BenchmarkFoo-bar":      "BenchmarkFoo-bar",
	} {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBaselineCompare(t *testing.T) {
	base := []Bench{
		{Name: "BenchmarkA-8", NsPerOp: 1000},
		{Name: "BenchmarkB-8", NsPerOp: 1000},
		{Name: "BenchmarkGone-8", NsPerOp: 1000},
	}
	current := []Bench{
		{Name: "BenchmarkA-16", NsPerOp: 1250}, // +25%: inside the band
		{Name: "BenchmarkB-16", NsPerOp: 1400}, // +40%: regression
		{Name: "BenchmarkNew-16", NsPerOp: 9000},
	}
	warnings, matched := compare(current, base, 30)
	if len(warnings) != 1 {
		t.Fatalf("%d warnings, want exactly the one real regression: %v", len(warnings), warnings)
	}
	if matched != 2 {
		t.Errorf("matched %d benchmarks, want 2 (Gone and New have no counterpart)", matched)
	}
	if !strings.Contains(warnings[0], "BenchmarkB") || !strings.Contains(warnings[0], "40%") {
		t.Errorf("warning does not name the regression: %q", warnings[0])
	}
	// A faster run and an exactly-at-threshold run stay silent.
	if w, _ := compare([]Bench{{Name: "BenchmarkA-8", NsPerOp: 500}}, base, 30); len(w) != 0 {
		t.Errorf("improvement warned: %v", w)
	}
	if w, _ := compare([]Bench{{Name: "BenchmarkA-8", NsPerOp: 1300}}, base, 30); len(w) != 0 {
		t.Errorf("at-threshold run warned: %v", w)
	}
	// Disjoint name sets must report a dead comparison, not a pass.
	if _, m := compare([]Bench{{Name: "BenchmarkRenamed-8", NsPerOp: 10}}, base, 30); m != 0 {
		t.Errorf("disjoint sets matched %d", m)
	}
}

func TestGate(t *testing.T) {
	base := []Bench{
		{Name: "BenchmarkE27LargeFloor/indexed-8", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchmarkOther-8", NsPerOp: 1000, AllocsPerOp: 100},
	}
	hot := "BenchmarkE27LargeFloor/indexed"

	// Inside both limits: silent.
	cur := []Bench{{Name: "BenchmarkE27LargeFloor/indexed-16", NsPerOp: 1015, AllocsPerOp: 101}}
	if errs := gate(cur, base, hot, 2, 2); len(errs) != 0 {
		t.Fatalf("within-limit run failed the gate: %v", errs)
	}
	// ns/op past the limit on the matched benchmark: one error.
	cur = []Bench{{Name: "BenchmarkE27LargeFloor/indexed-16", NsPerOp: 1100, AllocsPerOp: 100}}
	errs := gate(cur, base, hot, 2, 2)
	if len(errs) != 1 || !strings.Contains(errs[0], "ns/op") {
		t.Fatalf("10%% ns/op regression produced %v, want one ns/op error", errs)
	}
	// The same ns/op excursion on an unmatched benchmark stays advisory…
	cur = []Bench{{Name: "BenchmarkOther-16", NsPerOp: 1100, AllocsPerOp: 100}}
	if errs := gate(cur, base, hot, 2, 2); len(errs) != 0 {
		t.Fatalf("unmatched benchmark tripped the ns/op gate: %v", errs)
	}
	// …but its allocs/op gate applies everywhere.
	cur = []Bench{{Name: "BenchmarkOther-16", NsPerOp: 900, AllocsPerOp: 110}}
	errs = gate(cur, base, hot, 2, 2)
	if len(errs) != 1 || !strings.Contains(errs[0], "allocs/op") {
		t.Fatalf("10%% allocs/op regression produced %v, want one allocs/op error", errs)
	}
	// Zero percentages disable each gate.
	if errs := gate(cur, base, hot, 0, 0); len(errs) != 0 {
		t.Fatalf("disabled gates still failed: %v", errs)
	}
}

// TestGateMatchList: -fail-match takes a comma-separated list, and any
// entry arms the ns/op gate for benchmarks containing it.
func TestGateMatchList(t *testing.T) {
	base := []Bench{
		{Name: "BenchmarkE27LargeFloor/indexed-8", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchmarkE28ShardedFloor/shards=1-8", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchmarkE28ShardedFloor/shards=4-8", NsPerOp: 1000, AllocsPerOp: 100},
	}
	hot := "BenchmarkE27LargeFloor/indexed, BenchmarkE28ShardedFloor/shards=1"
	cur := []Bench{
		{Name: "BenchmarkE27LargeFloor/indexed-8", NsPerOp: 1100, AllocsPerOp: 100},
		{Name: "BenchmarkE28ShardedFloor/shards=1-8", NsPerOp: 1100, AllocsPerOp: 100},
		{Name: "BenchmarkE28ShardedFloor/shards=4-8", NsPerOp: 1100, AllocsPerOp: 100},
	}
	errs := gate(cur, base, hot, 2, 0)
	if len(errs) != 2 {
		t.Fatalf("two matched benchmarks regressed, got %v", errs)
	}
	for _, e := range errs {
		if strings.Contains(e, "shards=4") {
			t.Fatalf("unlisted variant tripped the gate: %v", errs)
		}
	}
	// An all-whitespace list matches nothing.
	if errs := gate(cur, base, " , ", 2, 0); len(errs) != 0 {
		t.Fatalf("blank match list armed the gate: %v", errs)
	}
}

// TestMetricColumns: b.ReportMetric columns are parsed by unit, and
// under a baseline that records them they are gated exactly — a work
// counter that moves either way, or goes missing, fails; a benchmark
// whose baseline records none is not gated on them.
func TestMetricColumns(t *testing.T) {
	b, ok := parseLine("BenchmarkE27LargeFloor/indexed-2  1  512345678 ns/op  115568 frame-starts/op  2876543 crossings/op  9612345 B/op  29498 allocs/op")
	if !ok {
		t.Fatal("benchmark line with metrics not recognised")
	}
	if b.NsPerOp != 512345678 || b.BytesPerOp != 9612345 || b.AllocsPerOp != 29498 ||
		len(b.Metrics) != 2 || b.Metrics["frame-starts/op"] != 115568 || b.Metrics["crossings/op"] != 2876543 {
		t.Fatalf("parsed %+v", b)
	}
	if b, _ := parseLine("BenchmarkX-2  10  100 ns/op  25.00 MB/s"); b.Metrics != nil {
		t.Errorf("MB/s parsed as a counter: %v", b.Metrics)
	}
	base := []Bench{{Name: "BenchmarkE27LargeFloor/indexed", NsPerOp: 1e9, AllocsPerOp: 29498,
		Metrics: map[string]float64{"frame-starts/op": 115568, "crossings/op": 2876543}}}
	if errs := gate([]Bench{b}, base, "", 0, 2); len(errs) != 0 {
		t.Fatalf("matching counters failed the gate: %v", errs)
	}
	for _, tc := range []struct {
		name    string
		metrics map[string]float64
	}{
		{"fewer crossings", map[string]float64{"frame-starts/op": 115568, "crossings/op": 2876542}},
		{"more starts", map[string]float64{"frame-starts/op": 115569, "crossings/op": 2876543}},
		{"missing counter", map[string]float64{"frame-starts/op": 115568}},
	} {
		c := b
		c.Metrics = tc.metrics
		errs := gate([]Bench{c}, base, "", 0, 0)
		if len(errs) != 1 || !strings.Contains(errs[0], "/op") {
			t.Errorf("%s: got %v, want one counter error", tc.name, errs)
		}
	}
	// No counters in the baseline row: nothing to hold.
	base[0].Metrics = nil
	c := b
	c.Metrics = map[string]float64{"crossings/op": 1}
	if errs := gate([]Bench{c}, base, "", 0, 0); len(errs) != 0 {
		t.Fatalf("a baseline without counters gated them: %v", errs)
	}
}
