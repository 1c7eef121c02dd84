package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/netsim"
	"repro/internal/netsim/transport"
)

// scenario is one measured build, Prepare and Run of a workload. All
// times are host time.
type scenario struct {
	res netsim.Result

	topologyS, prepareS float64 // wall time in the builder and in Prepare
	runS, runCPUS       float64 // wall and process CPU time inside Run
	liveHeapMB          float64 // live heap after Prepare, after a GC
	runAllocs           uint64  // heap objects allocated during Run
	runAllocBytes       uint64
	runGCs              uint32

	// slowdown is the reference kernel's time around Run over
	// refNominalNs; runS and runCPUS are already divided by it.
	slowdown float64

	// Traced scenarios only.
	tr          *tracer
	probes      counter
	conns       []*transport.Conn
	heapAddedMB float64 // live heap Prepare added to the built topology
}

// runScenario builds, prepares and runs one scenario, timing each call
// from outside. A traced scenario also records spans, attaches counting
// probes per shard, and measures the heap the builder left, with a GC
// between the builder and Prepare that no reported time includes. The
// times inside Run are divided by the slowdown ref reads just before and
// just after it (see calibrate.go); no ref leaves them as measured.
func runScenario(w workload, seed int64, durationUs float64, traced bool, ref []*refKernel) (sc scenario, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	if traced {
		sc.tr = newTracer()
	}
	tr := sc.tr
	runtime.GC()

	t0 := time.Now()
	s := tr.begin(spanBuilder)
	n, conns := w.build(seed, tr)
	tr.end(s)
	sc.topologyS = time.Since(t0).Seconds()

	var probes []*counter
	var builtHeapMB float64
	if traced {
		builtHeapMB = liveHeapMB()
		n.AttachShardProbes(func(int) netsim.Probe {
			c := &counter{}
			probes = append(probes, c)
			return c
		})
	}

	t1 := time.Now()
	s = tr.begin(spanPrepare)
	n.Prepare()
	tr.end(s)
	sc.prepareS = time.Since(t1).Seconds()

	sc.liveHeapMB = liveHeapMB()
	if traced {
		sc.heapAddedMB = sc.liveHeapMB - builtHeapMB
	}
	refNs := read(ref, nil)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t2 := time.Now()
	s = tr.begin(spanRun)
	sc.res = n.Run(durationUs)
	tr.end(s)
	sc.runS = time.Since(t2).Seconds()
	sc.runCPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	sc.runAllocs = m1.Mallocs - m0.Mallocs
	sc.runAllocBytes = m1.TotalAlloc - m0.TotalAlloc
	sc.runGCs = m1.NumGC - m0.NumGC

	sc.slowdown = slowdown(read(ref, refNs))
	sc.runS /= sc.slowdown
	sc.runCPUS /= sc.slowdown
	sc.probes = sumCounters(probes)
	sc.conns = conns
	return sc, w.verify(sc.res)
}

const mb = 1e6

// liveHeapMB collects garbage and reports the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / mb
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 { return float64(rusage().Maxrss) * 1024 / mb }

// options are one benchmark invocation's settings.
type options struct {
	seed    int64
	seconds float64 // how long to keep starting scenarios
	traced  bool
	minReps int     // scenarios (traced: pairs) run however long they take
	virtUs  float64 // overrides the workload's virtual duration when positive
}

// outcome is what one invocation measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	model             model   // the first scenario's simulated outcome
	spans             *tracer // the first traced scenario's spans
	slowdown          float64 // the median scenario slowdown (see calibrate.go)
}

// subSeed derives scenario rep's seed from the invocation seed, so one
// seed always runs the same sequence of scenarios.
func subSeed(seed int64, rep int) int64 { return seed*1000 + int64(rep) }

// bench runs scenarios of w until the time is up and reduces them to
// medians. Untraced, each rep is one scenario and yields the end-to-end
// metrics. Traced, each rep is a pair on one seed — untraced and traced,
// in alternating order — and yields the per-layer metrics: host times
// from the untraced twin, counts and spans from the traced one, whose
// simulated outcome must match its twin's exactly. It fails only when the
// reference kernel cannot be set up.
func bench(w workload, o options, log io.Writer) (outcome, error) {
	virtUs := w.durationUs
	if o.virtUs > 0 {
		virtUs = o.virtUs
	}
	ref := make([]*refKernel, runtime.GOMAXPROCS(0))
	for i := range ref {
		var err error
		if ref[i], err = newRefKernel(); err != nil {
			return outcome{}, err
		}
	}
	var out outcome
	var samples []map[string]float64
	var slowdowns []float64
	start := time.Now()
	for rep := 0; ; rep++ {
		if elapsed := time.Since(start).Seconds(); rep >= o.minReps &&
			(rep == 0 || elapsed*float64(rep+1)/float64(rep) > o.seconds) {
			break
		}
		seed := subSeed(o.seed, rep)
		fail := func(err error) {
			out.failed++
			fmt.Fprintf(log, "%s seed %d: %v\n", w.name, seed, err)
		}
		if !o.traced {
			out.attempted++
			sc, err := runScenario(w, seed, virtUs, false, ref)
			if err != nil {
				fail(err)
				continue
			}
			if rep == 0 {
				out.model = modelOf(sc.res)
			}
			samples = append(samples, endToEndSample(sc))
			slowdowns = append(slowdowns, sc.slowdown)
			fmt.Fprintf(log, "scenario %d seed %d: slowdown %.4f setup_s %.4f run_s %.4f run_cpu_s %.4f\n",
				rep, seed, sc.slowdown, sc.topologyS+sc.prepareS, sc.runS, sc.runCPUS)
			continue
		}
		var u, t scenario
		var errU, errT error
		if rep%2 == 0 {
			u, errU = runScenario(w, seed, virtUs, false, ref)
			t, errT = runScenario(w, seed, virtUs, true, ref)
		} else {
			t, errT = runScenario(w, seed, virtUs, true, ref)
			u, errU = runScenario(w, seed, virtUs, false, ref)
		}
		out.attempted += 2
		if errU != nil {
			fail(errU)
		}
		if errT == nil && errU == nil && modelOf(t.res) != modelOf(u.res) {
			errT = fmt.Errorf("traced outcome %+v differs from untraced %+v", modelOf(t.res), modelOf(u.res))
		}
		if errT != nil {
			fail(fmt.Errorf("traced: %w", errT))
		}
		if errU != nil || errT != nil {
			continue
		}
		if rep == 0 {
			out.model = modelOf(u.res)
			out.spans = t.tr
		}
		samples = append(samples, layerSample(w, virtUs, u, t))
		slowdowns = append(slowdowns, u.slowdown)
	}
	out.metrics = medians(samples)
	if len(slowdowns) > 0 {
		out.slowdown = median(slowdowns)
	}
	if !o.traced {
		out.metrics["peak_rss_mb"] = peakRSSMB()
	}
	return out, nil
}

// medians reduces per-rep samples to each key's median.
func medians(samples []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	if len(samples) == 0 {
		return out
	}
	for k := range samples[0] {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = s[k]
		}
		out[k] = median(xs)
	}
	return out
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func endToEndSample(sc scenario) map[string]float64 {
	return map[string]float64{
		"setup_s":      sc.topologyS + sc.prepareS,
		"run_s":        sc.runS,
		"run_cpu_s":    sc.runCPUS,
		"live_heap_mb": sc.liveHeapMB,
		"run_allocs":   float64(sc.runAllocs),
	}
}

// layerSample derives the per-layer metrics of one traced pair.
func layerSample(w workload, virtUs float64, u, t scenario) map[string]float64 {
	r := t.res
	es := r.EngineStats
	nodes := 0
	for _, k := range r.Plan.NodesPerShard {
		nodes += k
	}
	pairs := float64(nodes) * float64(nodes-1) / 2
	var maxFired, sumFired float64
	for _, s := range r.ShardStats {
		f := float64(s.Fired)
		sumFired += f
		maxFired = max(maxFired, f)
	}
	c := t.probes
	frames := float64(c.kinds[netsim.EvTxStart])
	var sent, lost, rtos int
	for _, cn := range t.conns {
		s := cn.Stats()
		sent += s.SegsSent
		lost += s.SegsLost
		rtos += s.RTOs
	}
	fateNs := t.tr.durationsNs(spanConnFate)
	self := t.tr.selfNs()
	ticks := 0.0
	if w.roamIntervalUs > 0 {
		ticks = math.Floor(virtUs / w.roamIntervalUs)
	}
	return map[string]float64{
		"sim.events_fired":     float64(es.Fired),
		"sim.events_cancelled": float64(es.Cancelled),
		"sim.heap_high_water":  float64(es.HeapHighWater),
		"sim.pool_hit_rate":    es.PoolHitRate(),
		"sim.cpu_ns_per_event": ratio(u.runCPUS*1e9, float64(es.Fired)),

		"build.topology_s":  u.topologyS,
		"build.prepare_s":   u.prepareS,
		"build.gain_pairs":  pairs,
		"build.ns_per_pair": ratio(u.prepareS*1e9, pairs),
		"build.heap_mb":     t.heapAddedMB,

		"shard.count":            float64(r.Shards),
		"shard.groups":           float64(r.Plan.Groups),
		"shard.flow_edge_merges": float64(r.Plan.FlowEdgeMerges),
		"shard.event_imbalance":  ratio(maxFired, sumFired/float64(len(r.ShardStats))),
		"shard.cpu_util":         ratio(u.runCPUS, u.runS),

		"medium.frames":           frames,
		"medium.judgments":        float64(c.kinds[netsim.EvRxOutcome]),
		"medium.cs_freezes":       float64(c.kinds[netsim.EvBackoffFreeze]),
		"medium.nav_sets":         float64(c.kinds[netsim.EvNavSet]),
		"medium.obss_ignores":     float64(r.ObssIgnores),
		"medium.collision_ratio":  ratio(float64(r.Collisions), float64(r.Attempts)),
		"medium.cpu_ns_per_frame": ratio(u.runCPUS*1e9, frames),

		"mac.attempts":           float64(r.Attempts),
		"mac.txops":              float64(r.Txops),
		"mac.useful_ratio":       ratio(float64(r.Delivered), float64(c.dataMpdus)),
		"mac.mpdus_per_burst":    ratio(float64(c.dataMpdus), float64(c.dataFrames)),
		"mac.blockack_retries":   float64(r.BlockAckRetries),
		"mac.virtual_collisions": float64(r.VirtualCollisions),
		"mac.retry_drops":        float64(r.RetryDrops),
		"mac.queue_drops":        float64(r.QueueDrops),
		"mac.enqueues":           float64(c.kinds[netsim.EvEnqueue]),

		"ratectl.modes_used": float64(len(r.ModeAttempts)),
		"ratectl.verdicts":   float64(c.kinds[netsim.EvBlockAck]),

		"mobility.roams": float64(r.Roams),
		"mobility.ticks": ticks,

		"transport.fates":       float64(len(fateNs)),
		"transport.fate_ns_p50": percentile(fateNs, 50),
		"transport.fate_ns_p99": percentile(fateNs, 99),
		"transport.segs_sent":   float64(sent),
		"transport.segs_lost":   float64(lost),
		"transport.rtos":        float64(rtos),
		"transport.self_s":      float64(self[spanConnStart]+self[spanConnFate]) / 1e9,

		"run.self_s":    float64(self[spanRun]) / 1e9,
		"run.alloc_mb":  float64(u.runAllocBytes) / mb,
		"run.gc_cycles": float64(u.runGCs),

		"probe.events":        float64(c.total()),
		"probe.overhead_frac": t.runS/u.runS - 1,
	}
}
