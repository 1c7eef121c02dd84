// Command perfbench measures what netsim simulations cost the host: the
// wait before the first event, the wall and CPU time of a fixed span of
// virtual time, memory, and allocations — end to end from untraced
// runs, and split by layer from a separate traced run. It times only the
// calls it makes into the public API and reads counts from Result,
// runtime memory statistics and getrusage. See README.md for the
// workloads and what each layer metric should move.
//
//	bash perfbench/run.sh --workload floor-obss --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed (scenarios) and the metrics by name with units.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/netsim"
)

// metricDef is a reported metric's name and unit; BENCHMARK.json lists
// the same names and units.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"run_cpu_s", "s"},
	{"live_heap_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"run_allocs", "count"},
}

var perLayer = []metricDef{
	{"sim.events_fired", "count"},
	{"sim.events_cancelled", "count"},
	{"sim.heap_high_water", "count"},
	{"sim.pool_hit_rate", "ratio"},
	{"sim.cpu_ns_per_event", "ns"},
	{"build.topology_s", "s"},
	{"build.prepare_s", "s"},
	{"build.gain_pairs", "count"},
	{"build.ns_per_pair", "ns"},
	{"build.heap_mb", "MB"},
	{"shard.count", "count"},
	{"shard.groups", "count"},
	{"shard.flow_edge_merges", "count"},
	{"shard.event_imbalance", "ratio"},
	{"shard.cpu_util", "ratio"},
	{"medium.frames", "count"},
	{"medium.judgments", "count"},
	{"medium.cs_freezes", "count"},
	{"medium.nav_sets", "count"},
	{"medium.obss_ignores", "count"},
	{"medium.collision_ratio", "ratio"},
	{"medium.cpu_ns_per_frame", "ns"},
	{"mac.attempts", "count"},
	{"mac.txops", "count"},
	{"mac.useful_ratio", "ratio"},
	{"mac.mpdus_per_burst", "ratio"},
	{"mac.blockack_retries", "count"},
	{"mac.virtual_collisions", "count"},
	{"mac.retry_drops", "count"},
	{"mac.queue_drops", "count"},
	{"mac.enqueues", "count"},
	{"ratectl.modes_used", "count"},
	{"ratectl.verdicts", "count"},
	{"mobility.roams", "count"},
	{"mobility.ticks", "count"},
	{"transport.fates", "count"},
	{"transport.fate_ns_p50", "ns"},
	{"transport.fate_ns_p99", "ns"},
	{"transport.segs_sent", "count"},
	{"transport.segs_lost", "count"},
	{"transport.rtos", "count"},
	{"transport.self_s", "s"},
	{"run.self_s", "s"},
	{"run.alloc_mb", "MB"},
	{"run.gc_cycles", "count"},
	{"probe.events", "count"},
	{"probe.overhead_frac", "ratio"},
}

// model is a scenario's simulated outcome. It is printed beside the
// metrics so a change that claims only speed can show it left the
// simulation alone; it is not a performance metric, and the simulator is
// not validated against hardware, so it carries no accuracy figure.
type model struct {
	Delivered, Attempts, Roams                int
	GoodputMbps, Jain, P95PageLoadMs, MeanMOS float64
}

func modelOf(r netsim.Result) model {
	m := model{Delivered: r.Delivered, Attempts: r.Attempts, Roams: r.Roams,
		GoodputMbps: r.AggGoodputMbps, Jain: netsim.JainIndex(r.BssGoodputMbps)}
	if q := r.QoE; q != nil {
		m.P95PageLoadMs = q.P95PageLoadUs / 1e3
		m.MeanMOS = q.MeanMOS
	}
	return m
}

type namedValue struct {
	name  string
	value float64
}

func (m model) fields() []namedValue {
	return []namedValue{
		{"model.delivered", float64(m.Delivered)},
		{"model.attempts", float64(m.Attempts)},
		{"model.goodput_mbps", m.GoodputMbps},
		{"model.jain", m.Jain},
		{"model.p95_plt_ms", m.P95PageLoadMs},
		{"model.mean_mos", m.MeanMOS},
		{"model.roams", float64(m.Roams)},
	}
}

// digest hashes the exact bits of every model field.
func (m model) digest() string {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range m.fields() {
		bits := math.Float64bits(f.value)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: floor-obss, city-sharded or stadium-ht")
	seed := flag.Int64("seed", 1, "seed the scenarios are derived from")
	seconds := flag.Float64("seconds", 35, "host seconds to keep starting scenarios")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from traced pairs")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, minReps: 3}
	out, err := bench(w, o, os.Stderr)
	if err == nil {
		err = report(os.Stdout, ".bench_build", w, o, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report prints the run's environment, the first scenario's simulated
// outcome and a metric table, writes the traced spans into spanDir, and
// ends with the result line.
func report(stdout io.Writer, spanDir string, w workload, o options, out outcome) error {
	defs, trace := endToEnd, 0
	if o.traced {
		defs, trace = perLayer, 1
	}
	env := map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds, "trace": trace,
		"virtual_s": w.durationUs / 1e6, "scenarios": out.attempted,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu_model": cpuModel(), "go_version": runtime.Version(),
		"host_slowdown": out.slowdown,
	}
	if o.virtUs > 0 {
		env["virtual_s"] = o.virtUs / 1e6
	}
	modelOut := map[string]any{"digest": out.model.digest()}
	for _, f := range out.model.fields() {
		modelOut[f.name] = f.value
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		if v, ok := out.metrics[d.name]; ok {
			res.Metrics[d.name] = metricValue{v, d.unit}
		}
	}
	res.Correct = out.failed == 0 && out.attempted > 0 && len(res.Metrics) == len(defs)

	bw := bufio.NewWriter(stdout)
	for _, line := range []struct {
		tag string
		v   any
	}{{"env", env}, {"model", modelOut}} {
		b, err := json.Marshal(line.v)
		if err != nil {
			return err
		}
		fmt.Fprintf(bw, "%s %s\n", line.tag, b)
	}
	for _, d := range defs {
		fmt.Fprintf(bw, "%-26s %16.6g %s\n", d.name, out.metrics[d.name], d.unit)
	}
	if out.spans != nil {
		path := filepath.Join(spanDir, "spans-"+w.name+".csv")
		if err := out.spans.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(bw, "spans %s (%d spans)\n", path, len(out.spans.spans))
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", b)
	return bw.Flush()
}

// cpuModel reads the processor name Linux reports, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
