package mathx

import (
	"math"
	"testing"
	"testing/quick"
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

func TestQFunction(t *testing.T) {
	// Known values of the Gaussian tail.
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.158655},
		{2, 0.022750},
		{3, 0.001350},
	}
	for _, c := range cases {
		if got := Q(c.x); !almostEq(got, c.want, 1e-5) {
			t.Errorf("Q(%v) = %v, want %v", c.x, got, c.want)
		}
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

func TestInterpAt(t *testing.T) {
	xs := []float64{0, 1, 2}
	ys := []float64{0, 10, 40}
	if got := InterpAt(xs, ys, 0.5); !almostEq(got, 5, 1e-12) {
		t.Errorf("InterpAt(0.5) = %v, want 5", got)
	}
	if got := InterpAt(xs, ys, 1.5); !almostEq(got, 25, 1e-12) {
		t.Errorf("InterpAt(1.5) = %v, want 25", got)
	}
	if got := InterpAt(xs, ys, -1); got != 0 {
		t.Errorf("InterpAt below domain = %v, want clamp to 0", got)
	}
	if got := InterpAt(xs, ys, 9); got != 40 {
		t.Errorf("InterpAt above domain = %v, want clamp to 40", got)
	}
}

func TestInterpAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("InterpAt with mismatched slices should panic")
		}
	}()
	InterpAt([]float64{1}, []float64{}, 0)
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEq(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance(single) = %v, want 0", got)
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

func TestRunningMatchesBatch(t *testing.T) {
	xs := []float64{1.5, -2, 3.25, 0, 8, -1, 2.5}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	if r.N() != len(xs) {
		t.Errorf("N = %d", r.N())
	}
	if !almostEq(r.Mean(), Mean(xs), 1e-12) {
		t.Errorf("running mean %v != batch %v", r.Mean(), Mean(xs))
	}
	if !almostEq(r.Variance(), Variance(xs), 1e-9) {
		t.Errorf("running var %v != batch %v", r.Variance(), Variance(xs))
	}
	lo, hi := MinMax(xs)
	if r.Min() != lo || r.Max() != hi {
		t.Errorf("running min/max %v/%v != %v/%v", r.Min(), r.Max(), lo, hi)
	}
}

func TestRunningProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var r Running
		for _, x := range clean {
			r.Add(x)
		}
		scale := math.Max(1, math.Abs(Mean(clean)))
		return almostEq(r.Mean(), Mean(clean), 1e-6*scale)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCCDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	pts := CCDF(xs, []float64{0, 1, 2.5, 4})
	want := []float64{1.0, 0.75, 0.5, 0}
	for i, p := range pts {
		if !almostEq(p.Prob, want[i], 1e-12) {
			t.Errorf("CCDF at %v = %v, want %v", p.X, p.Prob, want[i])
		}
	}
}

func TestCCDFMonotone(t *testing.T) {
	xs := []float64{0.3, 1.2, 5, 2.2, 0.9, 7.5, 3.3}
	th := Linspace(0, 10, 21)
	pts := CCDF(xs, th)
	for i := 1; i < len(pts); i++ {
		if pts[i].Prob > pts[i-1].Prob {
			t.Fatalf("CCDF not monotone at %d: %v > %v", i, pts[i].Prob, pts[i-1].Prob)
		}
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range xs {
		if !almostEq(xs[i], want[i], 1e-12) {
			t.Errorf("Linspace[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
}
