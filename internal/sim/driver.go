package sim

// Running several engines at once. Each Engine is a single-goroutine
// event loop; RunAll fans independent engines across a worker pool and
// runs each straight to the horizon. Nothing synchronizes the engines
// along the way, so the caller must hand over engines that share no
// mutable state. Each engine's event order then depends only on its
// own queue, never on worker count or goroutine scheduling.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// RunAll fires every event scheduled at or before untilUs on every
// engine and leaves each engine's clock at exactly untilUs. workers
// caps the goroutines running engines concurrently; 0 means
// GOMAXPROCS, and the effective count never exceeds len(engines).
// Worker count affects wall-clock only, never results.
func RunAll(engines []*Engine, untilUs float64, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(engines) {
		workers = len(engines)
	}
	if workers <= 1 {
		for _, e := range engines {
			e.Run(untilUs)
		}
		return
	}
	// Work-stealing over an atomic cursor: engines are rarely balanced
	// perfectly, so a fast worker picks up the next engine instead of
	// idling behind a static stripe.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(engines) {
					return
				}
				engines[i].Run(untilUs)
			}
		}()
	}
	wg.Wait()
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
