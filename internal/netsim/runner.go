package netsim

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/sim"
)

// Job is one independent simulation: a scenario builder plus the seed
// that makes it reproducible. Build must construct a fresh Network on
// every call — Networks and rng.Sources are single-goroutine objects
// and must never be shared across jobs.
type Job struct {
	Name       string
	Seed       int64
	DurationUs float64
	Build      func(seed int64) *Network
}

// Progress reports one finished job to ScenarioRunner.OnProgress.
type Progress struct {
	Index int // job's position in the input slice
	Done  int // jobs finished so far, this one included
	Total int
	Name  string
	Seed  int64

	// WallSeconds is the job's build+run wall-clock cost; SimUs the
	// virtual time it covered. SimUs/WallSeconds/1e6 is the realtime
	// multiple — the figure to watch when sizing a sweep.
	WallSeconds float64
	SimUs       float64
}

// Rate is simulated seconds per wall-clock second (0 when untimed).
func (p Progress) Rate() float64 {
	if p.WallSeconds <= 0 {
		return 0
	}
	return p.SimUs / 1e6 / p.WallSeconds
}

// ScenarioRunner fans jobs across a worker pool (sim.Parallel). Each
// worker runs whole jobs, and each job owns every piece of mutable
// state it touches (engine, nodes, rng.Source), so results are
// bit-for-bit identical to a serial run regardless of worker count or
// scheduling.
//
// Concurrency contract: two parallelism levels exist — jobs across the
// pool, and the passes inside one job that fan out on their own: the
// gain fill and the roam-tick gain refresh of a build of 256 nodes or
// more, and the shards of a sharded run (Config.Shards). RunAll keeps
// their product within Parallelism by dividing the budget: each job's
// Network gets a worker cap of Parallelism / workers (floored at 1,
// set with Network.SetWorkers before Run builds the Network), which
// bounds every one of those passes. No pass's worker count changes
// results, so the split is purely a scheduling decision.
type ScenarioRunner struct {
	// Workers is the pool size; values below 2 run the jobs serially.
	// The effective pool never exceeds Parallelism.
	Workers int

	// Parallelism caps the total goroutines running simulation work —
	// pool workers times each job's worker cap. 0 means GOMAXPROCS.
	Parallelism int

	// OnProgress, when set, is called once per finished job, serialized
	// under an internal lock so callbacks never interleave even with a
	// full worker pool. Jobs complete out of order; Done counts
	// completions, Index identifies the job.
	OnProgress func(Progress)
}

// budget resolves the total-goroutine cap and the per-job worker cap
// for a pool of the given size.
func (r ScenarioRunner) budget(workers int) (total, perJob int) {
	total = r.Parallelism
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	return total, max(1, total/max(1, workers))
}

// RunAll executes every job and returns results in job order.
func (r ScenarioRunner) RunAll(jobs []Job) []Result {
	out := make([]Result, len(jobs))
	workers := max(1, min(r.Workers, len(jobs)))
	total, perJob := r.budget(workers)
	done := 0
	var mu sync.Mutex
	sim.Parallel(len(jobs), min(workers, total), func(i int) {
		j := jobs[i]
		start := time.Now()
		net := j.Build(j.Seed)
		net.SetWorkers(perJob)
		out[i] = net.Run(j.DurationUs)
		if r.OnProgress == nil {
			return
		}
		wall := time.Since(start).Seconds()
		mu.Lock()
		done++
		p := Progress{Index: i, Done: done, Total: len(jobs), Name: j.Name,
			Seed: j.Seed, WallSeconds: wall, SimUs: j.DurationUs}
		r.OnProgress(p)
		mu.Unlock()
	})
	return out
}

// SeedSweep expands one scenario into jobs over seeds baseSeed+1 ..
// baseSeed+n, the common Monte-Carlo fan-out.
func SeedSweep(name string, build func(seed int64) *Network, durationUs float64, baseSeed int64, n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Name: name, Seed: baseSeed + int64(i) + 1, DurationUs: durationUs, Build: build}
	}
	return jobs
}

// MeanAggGoodput averages the aggregate goodput across results.
func MeanAggGoodput(results []Result) float64 {
	if len(results) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range results {
		sum += r.AggGoodputMbps
	}
	return sum / float64(len(results))
}
