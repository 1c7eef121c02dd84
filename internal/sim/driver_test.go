package sim

import (
	"testing"
)

// TestRunAllWorkerInvariance: engines share nothing, so any worker
// count — serial, saturated, oversubscribed — must produce the
// identical per-engine fire sequence and leave every clock at exactly
// the horizon, including an engine with nothing scheduled.
func TestRunAllWorkerInvariance(t *testing.T) {
	const untilUs = 500
	run := func(workers int) [][]float64 {
		engines := make([]*Engine, 6)
		fired := make([][]float64, len(engines))
		for i := range engines {
			engines[i] = &Engine{}
			if i == len(engines)-1 {
				continue // idle engine: its clock must still advance
			}
			eng, idx := engines[i], i
			gap := 3 + float64(i) // distinct load per engine
			var tick func()
			tick = func() {
				fired[idx] = append(fired[idx], eng.Now())
				eng.Schedule(gap, tick)
			}
			eng.Schedule(gap, tick)
		}
		RunAll(engines, untilUs, workers)
		for i, e := range engines {
			if e.Now() != untilUs {
				t.Fatalf("workers=%d: engine %d finished at %v, want %v", workers, i, e.Now(), float64(untilUs))
			}
		}
		return fired
	}
	ref := run(1)
	for _, workers := range []int{0, 2, 6, 32} {
		got := run(workers)
		for i := range ref {
			if len(got[i]) != len(ref[i]) {
				t.Fatalf("workers=%d: engine %d fired %d events, serial fired %d",
					workers, i, len(got[i]), len(ref[i]))
			}
			for j := range ref[i] {
				if got[i][j] != ref[i][j] {
					t.Fatalf("workers=%d: engine %d event %d at %.3f, serial at %.3f",
						workers, i, j, got[i][j], ref[i][j])
				}
			}
		}
	}
}

// TestRunAllStatsAggregation: MergeStats over the engines RunAll drove
// must sum their event counters and take the max heap high-water.
func TestRunAllStatsAggregation(t *testing.T) {
	engines := []*Engine{{}, {}}
	for i, e := range engines {
		for j := 0; j < (i+1)*10; j++ {
			e.Schedule(float64(j), func() {})
		}
	}
	RunAll(engines, 100, 2)
	s0, s1 := engines[0].Stats(), engines[1].Stats()
	got := MergeStats(s0, s1)
	if s0.Fired != 10 || s1.Fired != 20 {
		t.Fatalf("engines fired %d and %d events, want 10 and 20", s0.Fired, s1.Fired)
	}
	if got.Scheduled != s0.Scheduled+s1.Scheduled || got.Fired != s0.Fired+s1.Fired {
		t.Fatalf("merged %+v does not sum %+v + %+v", got, s0, s1)
	}
	wantHW := s0.HeapHighWater
	if s1.HeapHighWater > wantHW {
		wantHW = s1.HeapHighWater
	}
	if got.HeapHighWater != wantHW {
		t.Fatalf("merged high-water %d, want max(%d, %d)", got.HeapHighWater,
			s0.HeapHighWater, s1.HeapHighWater)
	}
}

// TestMergeStats pins the aggregation semantics directly: sums for the
// event/pool counters (keeping PoolHitRate event-weighted), max for the
// heap high-water mark.
func TestMergeStats(t *testing.T) {
	a := Stats{Scheduled: 10, Fired: 8, Cancelled: 2, PoolHits: 6, PoolMisses: 4, HeapHighWater: 5}
	b := Stats{Scheduled: 1, Fired: 1, Cancelled: 0, PoolHits: 0, PoolMisses: 1, HeapHighWater: 9}
	m := MergeStats(a, b)
	want := Stats{Scheduled: 11, Fired: 9, Cancelled: 2, PoolHits: 6, PoolMisses: 5, HeapHighWater: 9}
	if m != want {
		t.Fatalf("MergeStats = %+v, want %+v", m, want)
	}
	if z := MergeStats(); z != (Stats{}) {
		t.Fatalf("MergeStats() = %+v, want zero", z)
	}
}

// TestRunAllConcurrentEngines verifies the fan-out really runs engines
// on distinct goroutines without corrupting shared-nothing state —
// meaningful under -race, where a stray cross-engine touch would trip
// the detector.
func TestRunAllConcurrentEngines(t *testing.T) {
	const engines = 8
	es := make([]*Engine, engines)
	counts := make([]int, engines)
	for i := range es {
		es[i] = &Engine{}
		eng, idx := es[i], i
		var tick func()
		tick = func() {
			counts[idx]++
			eng.Schedule(1, tick)
		}
		eng.Schedule(1, tick)
	}
	RunAll(es, 1000, 4)
	for i, c := range counts {
		if c != 1000 {
			t.Fatalf("engine %d fired %d events, want 1000", i, c)
		}
		if es[i].Now() != 1000 {
			t.Fatalf("engine %d finished at %v, want 1000", i, es[i].Now())
		}
	}
}
