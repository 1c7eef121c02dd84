package mathx

import (
	"math"
	"math/rand/v2"
	"testing"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDBRoundTrip(t *testing.T) {
	for _, db := range []float64{-30, -10, 0, 3, 10, 20, 60} {
		lin := DBToLinear(db)
		if got := LinearToDB(lin); !almostEq(got, db, 1e-9) {
			t.Errorf("LinearToDB(DBToLinear(%v)) = %v", db, got)
		}
	}
}

func TestDBKnownValues(t *testing.T) {
	if got := DBToLinear(3); !almostEq(got, 1.995262, 1e-5) {
		t.Errorf("DBToLinear(3) = %v, want ~1.99526", got)
	}
	if got := DBToLinear(10); !almostEq(got, 10, 1e-12) {
		t.Errorf("DBToLinear(10) = %v, want 10", got)
	}
	if got := LinearToDB(100); !almostEq(got, 20, 1e-12) {
		t.Errorf("LinearToDB(100) = %v, want 20", got)
	}
}

func TestLinearToDBNonPositive(t *testing.T) {
	if got := LinearToDB(0); !math.IsInf(got, -1) {
		t.Errorf("LinearToDB(0) = %v, want -Inf", got)
	}
	if got := LinearToDB(-5); !math.IsInf(got, -1) {
		t.Errorf("LinearToDB(-5) = %v, want -Inf", got)
	}
}

func TestClampLerp(t *testing.T) {
	if got := Clamp(5, 0, 1); got != 1 {
		t.Errorf("Clamp(5,0,1) = %v", got)
	}
	if got := Clamp(-5, 0, 1); got != 0 {
		t.Errorf("Clamp(-5,0,1) = %v", got)
	}
	if got := Clamp(0.5, 0, 1); got != 0.5 {
		t.Errorf("Clamp(0.5,0,1) = %v", got)
	}
	if got := Lerp(2, 4, 0.5); got != 3 {
		t.Errorf("Lerp(2,4,0.5) = %v", got)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEq(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestMinMaxPercentile(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	lo, hi := MinMax(xs)
	if lo != 1 || hi != 9 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 9 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile([]float64{1, 2, 3, 4}, 50); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("P50 = %v, want 2.5", got)
	}
}

// TestDBToLinearBits holds DBToLinear to math.Pow(10, db/10) bit for
// bit: every input math.Pow special-cases, subnormal and overflowing
// results, the 0.1 dB grid, and 10M seeded draws over [−200, 50] dB.
// The gain matrices store its results, so a single differing bit would
// change simulated outcomes.
func TestDBToLinearBits(t *testing.T) {
	check := func(db float64) {
		want := math.Pow(10, db/10)
		if got := DBToLinear(db); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DBToLinear(%v) = %v (%#x), math.Pow gives %v (%#x)",
				db, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, db := range []float64{
		0, math.Copysign(0, -1), 5, -5, 10, -10, 2.5, -2.5,
		math.NaN(), math.Inf(1), math.Inf(-1), 3000, -3000,
		2990, -2990, 3083, 3090, -3070, -3200, -3240, -3300,
		2999.999999, -2999.999999, math.Nextafter(3000, 0), math.Nextafter(-3000, 0),
		1e-300, -1e-300, 4.9999999999, 5.0000000001, math.MaxFloat64, -math.MaxFloat64,
	} {
		check(db)
	}
	// Subnormal results: 10^y for y in (−324, −308).
	for db := -3240.0; db <= -3070; db += 0.37 {
		check(db)
	}
	for k := -3000; k <= 3000; k++ {
		check(float64(k) / 10)
	}
	r := rand.New(rand.NewPCG(1, 2))
	for range 10_000_000 {
		check(-200 + 250*r.Float64())
	}
}

func BenchmarkDBToLinear(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = -200 + 250*r.Float64()
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += DBToLinear(xs[i&1023])
	}
	benchSink = sink
}

var benchSink float64
