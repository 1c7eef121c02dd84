package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smokeUs is each workload's virtual duration in the smoke test: as
// short as still lets every check pass (stadium-ht needs a few mobility
// ticks before anyone roams).
var smokeUs = map[string]float64{
	"floor-obss":   20e3,
	"city-sharded": 5e3,
	"stadium-ht":   2e6,
}

type specMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCode pins BENCHMARK.json's workloads and metrics to the
// ones the code runs and reports, in the same order, and checks the
// bounds: each end-to-end bound in (0, 0.25], setup_s's the largest.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	var setupBound, maxBound float64
	for _, m := range s.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			continue
		}
		maxBound = max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, code says %q", i, s.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		kind string
		spec []specMetric
		code []metricDef
	}{{"end_to_end", s.EndToEnd, endToEnd}, {"per_layer", s.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, code reports %d", c.kind, len(c.spec), len(c.code))
		}
		for i, d := range c.code {
			if m := c.spec[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], code has %s [%s]", c.kind, i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at a tiny virtual
// duration and checks that the result line reports every metric with
// its unit and no failed scenario.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{seed: 7, traced: traced, minReps: 1, virtUs: smokeUs[w.name]}
			var log strings.Builder
			out, err := bench(w, o, &log)
			if err != nil {
				t.Fatal(err)
			}
			var stdout bytes.Buffer
			if err := report(&stdout, t.TempDir(), w, o, out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d/%d\n%s", w.name, traced,
					res.Correct, res.Failed, res.Attempted, log.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or not in %s: %+v", w.name, traced, d.name, d.unit, m)
				}
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.name].Value; !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, v)
				}
			}
			if traced && out.spans == nil {
				t.Errorf("%s: traced run kept no spans", w.name)
			}
		}
	}
}

// TestRefKernel checks a reading yields refPasses positive pass times per
// kernel copy, that no reading scales nothing, and that the kernel's
// buffers stay off the Go heap, so live_heap_mb does not count them.
func TestRefKernel(t *testing.T) {
	before := liveHeapMB()
	var ks []*refKernel
	for range 2 {
		k, err := newRefKernel()
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	if added := liveHeapMB() - before; added > 0.5 {
		t.Errorf("two kernels added %.2f MB to the live heap", added)
	}
	xs := read(ks, nil)
	if len(xs) != len(ks)*refPasses {
		t.Fatalf("%d pass times, want %d", len(xs), len(ks)*refPasses)
	}
	for _, x := range xs {
		if x <= 0 {
			t.Errorf("pass time %v ns", x)
		}
	}
	if s := slowdown(read(nil, nil)); s != 1 {
		t.Errorf("slowdown without a kernel is %v, want 1", s)
	}
}

// TestTracedStadiumMatchesPreset checks the rebuilt stadium floor is the
// preset's: same seed, same simulated outcome over the full virtual
// duration, long enough for walkers to reach and leave waypoints.
func TestTracedStadiumMatchesPreset(t *testing.T) {
	w, _ := workloadByName("stadium-ht")
	plain, err := runScenario(w, 3, w.durationUs, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runScenario(w, 3, w.durationUs, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if modelOf(plain.res) != modelOf(traced.res) {
		t.Fatalf("traced stadium %+v, preset %+v", modelOf(traced.res), modelOf(plain.res))
	}
	if len(traced.conns) != stadiumBSS*stadiumUsers*3/4 {
		t.Errorf("%d timed connections, want one per web user", len(traced.conns))
	}
	if n := len(traced.tr.durationsNs(spanConnFate)); n == 0 {
		t.Error("no transport fate was timed")
	}
}
