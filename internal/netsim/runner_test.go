package netsim

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

// Run the same seed sweep serially and with a pool; results must be
// bit-for-bit identical in job order. Under `go test -race` this also
// proves the workers share no mutable state (each job builds its own
// Network and rng.Source).
func TestRunnerParallelMatchesSerial(t *testing.T) {
	build := DenseGrid(DefaultConfig(), 2, 4, []int{1, 6}, 30, 1000)
	jobs := SeedSweep("dense", build, 200000, 100, 8)
	serial := ScenarioRunner{Workers: 1}.RunAll(jobs)
	parallel := ScenarioRunner{Workers: 4}.RunAll(jobs)
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := fmt.Sprintf("%+v", serial[i]), fmt.Sprintf("%+v", parallel[i])
		if a != b {
			t.Errorf("job %d diverged between serial and parallel:\n%s\n%s", i, a, b)
		}
	}
}

// With RTS/CTS and per-frame ARF enabled every node carries extra
// mutable state (NAV timers, per-destination rate controllers); the
// pool must still reproduce serial results bit for bit, ModeAttempts
// histograms included.
func TestRunnerParallelMatchesSerialWithRtsAndArf(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RtsThresholdBytes = 500
	cfg.RateControl = "arf"
	jobs := append(
		SeedSweep("hidden-rts", HiddenPair(rtsEvery(cfg), 300, 1200), 200000, 300, 4),
		SeedSweep("dense-arf", DenseGrid(cfg, 2, 4, []int{1, 6}, 30, 1000), 200000, 400, 4)...)
	serial := ScenarioRunner{Workers: 1}.RunAll(jobs)
	parallel := ScenarioRunner{Workers: 4}.RunAll(jobs)
	for i := range serial {
		a, b := fmt.Sprintf("%+v", serial[i]), fmt.Sprintf("%+v", parallel[i])
		if a != b {
			t.Errorf("job %d diverged between serial and parallel:\n%s\n%s", i, a, b)
		}
	}
	rts := 0
	for _, r := range serial[:4] {
		rts += r.RtsAttempts
	}
	if rts == 0 {
		t.Error("RTS/CTS jobs sent no RTSs; the test is not exercising the new state")
	}
}

func TestRunnerMixedScenarios(t *testing.T) {
	jobs := []Job{
		{Name: "dense", Seed: 1, DurationUs: 150000,
			Build: DenseGrid(DefaultConfig(), 1, 4, []int{1}, 30, 1000)},
		{Name: "mix", Seed: 2, DurationUs: 150000,
			Build: TrafficMix(DefaultConfig(), 2, 2, 1, 1.0)},
		{Name: "hidden", Seed: 3, DurationUs: 150000,
			Build: HiddenPair(DefaultConfig(), 300, 1000)},
	}
	results := ScenarioRunner{Workers: 3}.RunAll(jobs)
	for i, r := range results {
		if r.Attempts == 0 {
			t.Errorf("job %s ran nothing: %+v", jobs[i].Name, r)
		}
	}
}

// The speedup assertion is deliberately loose (the acceptance target of
// ≥2x on 4 workers is demonstrated by `netsim -compare`); here we only
// require that the pool is not pathologically slower, while logging the
// measured ratio for the record. Each side is timed several times,
// interleaved and from a freshly collected heap, and the fastest run of
// each is compared: load from other processes and GC debt left by
// earlier tests only ever add time, so the minimum is the estimate of
// what the runner itself costs.
func TestRunnerSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("parallel speedup needs more than one CPU")
	}
	build := DenseGrid(DefaultConfig(), 3, 8, []int{1}, 25, 1000)
	jobs := SeedSweep("dense", build, 300000, 0, 8)
	timeRun := func(workers int) time.Duration {
		runtime.GC()
		t0 := time.Now()
		ScenarioRunner{Workers: workers}.RunAll(jobs)
		return time.Since(t0)
	}
	const reps = 10
	serial, par := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		serial = min(serial, timeRun(1))
		par = min(par, timeRun(4))
	}
	speedup := float64(serial) / float64(par)
	t.Logf("best of %d: serial %v, 4 workers %v, speedup %.2fx", reps, serial, par, speedup)
	if speedup < 1.0 {
		t.Errorf("parallel runner slower than serial: %.2fx", speedup)
	}
}
