package sim

// Running several engines at once. Each Engine is a single-goroutine
// event loop; RunAll fans lanes of independent engines across a worker
// pool, and each lane runs its engines one after another, each
// straight to the horizon. Nothing synchronizes the engines along the
// way, so the caller must hand over engines that share no mutable
// state. Each engine's event order then depends only on its own queue,
// never on worker count, lane layout or goroutine scheduling.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker cap for n items: 0 or less means
// GOMAXPROCS, and the count never exceeds n. Parallel runs on this
// many goroutines; a caller whose one-worker path must allocate
// nothing checks it first, because the closure it would hand Parallel
// is heap-allocated even when Parallel runs it inline.
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// Parallel calls body(i) exactly once for every i in [0, n), on at
// most Workers(n, workers) goroutines, and returns when every call has
// returned. With at most one worker it runs the calls in index order
// on the calling goroutine. Otherwise the workers take indices from a
// shared cursor in ascending order: items are rarely balanced
// perfectly, so a fast worker picks up the next item instead of
// idling behind a static stripe. Calls for distinct indices may run
// concurrently, so body must make them share no mutable state.
func Parallel(n, workers int, body func(i int)) {
	workers = Workers(n, workers)
	if workers <= 1 {
		for i := range n {
			body(i)
		}
		return
	}
	var pool struct { // the cursor and the WaitGroup in one allocation
		cursor atomic.Int64
		wg     sync.WaitGroup
	}
	pool.wg.Add(workers)
	for range workers {
		go func() {
			defer pool.wg.Done()
			for {
				i := int(pool.cursor.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	pool.wg.Wait()
}

// RunAll fires every event scheduled at or before untilUs on every
// engine and leaves each engine's clock at exactly untilUs. A lane's
// engines run back to back, in order, on one goroutine; workers caps
// the lanes running concurrently (see Workers). Worker count affects
// wall-clock only, never results.
func RunAll(lanes [][]*Engine, untilUs float64, workers int) {
	if Workers(len(lanes), workers) <= 1 {
		for _, lane := range lanes {
			runLane(lane, untilUs)
		}
		return
	}
	Parallel(len(lanes), workers, func(i int) { runLane(lanes[i], untilUs) })
}

func runLane(lane []*Engine, untilUs float64) {
	for _, e := range lane {
		e.Run(untilUs)
	}
}

// MergeStats folds per-engine snapshots into one aggregate: event and
// pool counters sum (so PoolHitRate stays event-weighted — each shard
// contributes hits and misses in proportion to its traffic), and the
// heap high-water mark is the max across engines, since each heap is a
// separate backing array.
func MergeStats(all ...Stats) Stats {
	var out Stats
	for _, s := range all {
		out.Scheduled += s.Scheduled
		out.Fired += s.Fired
		out.Cancelled += s.Cancelled
		out.PoolHits += s.PoolHits
		out.PoolMisses += s.PoolMisses
		if s.HeapHighWater > out.HeapHighWater {
			out.HeapHighWater = s.HeapHighWater
		}
	}
	return out
}
