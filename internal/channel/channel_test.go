package channel

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/dsp"
	"repro/internal/rng"
)

func TestAWGNStatistics(t *testing.T) {
	src := rng.New(1)
	x := make([]complex128, 50000)
	y := AWGN(x, 0.5, src)
	if got := dsp.MeanPower(y); math.Abs(got-0.5) > 0.02 {
		t.Errorf("noise power = %v, want 0.5", got)
	}
}

func TestAWGNPreservesSignal(t *testing.T) {
	src := rng.New(2)
	x := []complex128{1, 2, 3}
	y := AWGN(x, 0, src)
	for i := range x {
		if y[i] != x[i] {
			t.Error("zero-variance AWGN altered the signal")
		}
	}
}

func TestNoiseVarFromSNRdB(t *testing.T) {
	if got := NoiseVarFromSNRdB(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("0 dB -> %v", got)
	}
	if got := NoiseVarFromSNRdB(10); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("10 dB -> %v", got)
	}
}

func TestRayleighUnitPower(t *testing.T) {
	src := rng.New(3)
	var p float64
	const n = 100000
	for i := 0; i < n; i++ {
		h := RayleighCoeff(src)
		p += real(h)*real(h) + imag(h)*imag(h)
	}
	if got := p / n; math.Abs(got-1) > 0.02 {
		t.Errorf("E|h|^2 = %v, want 1", got)
	}
}

func TestTDLUnitAveragePower(t *testing.T) {
	src := rng.New(5)
	var p float64
	const n = 20000
	for i := 0; i < n; i++ {
		c := NewTDL(5, 0.5, src)
		for _, g := range c.Taps {
			p += real(g)*real(g) + imag(g)*imag(g)
		}
	}
	if got := p / n; math.Abs(got-1) > 0.03 {
		t.Errorf("TDL average power = %v, want 1", got)
	}
}

func TestTDLApplyMatchesConvolution(t *testing.T) {
	c := &TDL{Taps: []complex128{1, 0.5i}}
	x := []complex128{1, 2, 3, 4}
	got := c.Apply(x)
	full := dsp.Convolve(x, c.Taps)
	for i := range got {
		if cmplx.Abs(got[i]-full[i]) > 1e-12 {
			t.Fatalf("Apply[%d] = %v, conv = %v", i, got[i], full[i])
		}
	}
	if len(got) != len(x) {
		t.Errorf("output length %d, want %d", len(got), len(x))
	}
}

func TestFlatChannel(t *testing.T) {
	c := Flat(2i)
	x := []complex128{1, 1}
	y := c.Apply(x)
	if y[0] != 2i || y[1] != 2i {
		t.Errorf("flat channel output %v", y)
	}
}

func TestFrequencyResponseFlat(t *testing.T) {
	c := Flat(1)
	fr := c.FrequencyResponse(8)
	for _, v := range fr {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Error("flat channel must have flat frequency response")
		}
	}
}

func TestFrequencyResponseSelective(t *testing.T) {
	// A two-tap channel has nulls: response must vary across bins.
	c := &TDL{Taps: []complex128{complex(math.Sqrt2/2, 0), complex(math.Sqrt2/2, 0)}}
	fr := c.FrequencyResponse(64)
	lo, hi := math.Inf(1), 0.0
	for _, v := range fr {
		m := cmplx.Abs(v)
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if hi/math.Max(lo, 1e-12) < 10 {
		t.Errorf("expected deep frequency selectivity, got ratio %v", hi/lo)
	}
}

func TestMIMOFlatShape(t *testing.T) {
	src := rng.New(6)
	h := MIMOFlat(3, 2, src)
	if h.Rows != 3 || h.Cols != 2 {
		t.Fatalf("shape %dx%d", h.Rows, h.Cols)
	}
	var p float64
	const n = 5000
	for i := 0; i < n; i++ {
		g := MIMOFlat(2, 2, src)
		p += g.FrobeniusNorm() * g.FrobeniusNorm()
	}
	if got := p / n / 4; math.Abs(got-1) > 0.05 {
		t.Errorf("per-entry power = %v, want 1", got)
	}
}

func TestMIMOTDLApply(t *testing.T) {
	src := rng.New(7)
	m := NewMIMOTDL(2, 2, 3, 0.5, src)
	tx := [][]complex128{{1, 0, 0, 0}, {0, 1, 0, 0}}
	rx := m.Apply(tx)
	if len(rx) != 2 || len(rx[0]) != 4 {
		t.Fatalf("rx shape %dx%d", len(rx), len(rx[0]))
	}
	// rx[0][0] must equal tap0 of link (0,0) * tx[0][0].
	want := m.Links[0][0].Taps[0]
	if cmplx.Abs(rx[0][0]-want) > 1e-12 {
		t.Errorf("rx[0][0] = %v, want %v", rx[0][0], want)
	}
}

func TestMIMOTDLFrequencyResponse(t *testing.T) {
	src := rng.New(8)
	m := NewMIMOTDL(2, 3, 2, 0.5, src)
	frs := m.FrequencyResponse(16)
	if len(frs) != 16 {
		t.Fatalf("%d bins", len(frs))
	}
	if frs[0].Rows != 2 || frs[0].Cols != 3 {
		t.Fatalf("bin matrix %dx%d", frs[0].Rows, frs[0].Cols)
	}
	// Bin 0 equals the sum of taps for each link.
	var sum complex128
	for _, tap := range m.Links[1][2].Taps {
		sum += tap
	}
	if cmplx.Abs(frs[0].At(1, 2)-sum) > 1e-12 {
		t.Error("bin-0 response != tap sum")
	}
}

func TestCorrelatedMimoZeroRhoIsIid(t *testing.T) {
	src := rng.New(20)
	h := CorrelatedMIMOFlat(2, 2, 0, src)
	if h.Rows != 2 || h.Cols != 2 {
		t.Fatal("shape wrong")
	}
}

func TestCorrelationShrinksEigenSpread(t *testing.T) {
	// High antenna correlation concentrates energy in the dominant
	// eigenmode: the condition number of H grows, multiplexing dies.
	src := rng.New(21)
	const trials = 400
	ratio := func(rho float64) float64 {
		var sum float64
		for i := 0; i < trials; i++ {
			s := CorrelatedMIMOFlat(2, 2, rho, src).SingularValues()
			sum += s[1] / s[0]
		}
		return sum / trials
	}
	iid := ratio(0)
	corr := ratio(0.95)
	if corr >= iid {
		t.Errorf("rho=0.95 eigenvalue ratio %v not below iid %v", corr, iid)
	}
	if corr > iid/2 {
		t.Errorf("strong correlation only shrank eigen-ratio from %v to %v", iid, corr)
	}
}

func TestCorrelatedMimoPreservesAveragePower(t *testing.T) {
	src := rng.New(22)
	const trials = 3000
	var p float64
	for i := 0; i < trials; i++ {
		h := CorrelatedMIMOFlat(2, 2, 0.6, src)
		p += h.FrobeniusNorm() * h.FrobeniusNorm()
	}
	if got := p / trials / 4; math.Abs(got-1) > 0.1 {
		t.Errorf("per-entry power %v under correlation, want ~1", got)
	}
}

func TestJammerPower(t *testing.T) {
	src := rng.New(9)
	j := Jammer(10000, 2.5, 0.13, src)
	if got := dsp.MeanPower(j); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("jammer power = %v, want 2.5", got)
	}
	if got := dsp.PAPR(j); math.Abs(got-1) > 1e-9 {
		t.Errorf("jammer PAPR = %v, want 1 (constant envelope)", got)
	}
}

func TestPathLossMonotone(t *testing.T) {
	m := Model24GHz()
	prev := -1.0
	for _, d := range []float64{1, 2, 5, 10, 20, 50, 100, 300} {
		loss := m.LossDB(d)
		if loss <= prev {
			t.Fatalf("path loss not increasing at %v m", d)
		}
		prev = loss
	}
}

func TestPathLossBreakpointSlope(t *testing.T) {
	m := Model24GHz()
	// Below breakpoint: ~6 dB per doubling. Above: ~10.5 dB per doubling.
	near := m.LossDB(8) - m.LossDB(4)
	far := m.LossDB(80) - m.LossDB(40)
	if math.Abs(near-6.02) > 0.1 {
		t.Errorf("near slope %v dB/doubling, want ~6", near)
	}
	if math.Abs(far-10.54) > 0.1 {
		t.Errorf("far slope %v dB/doubling, want ~10.5", far)
	}
}

func TestPathLossClampsBelow1m(t *testing.T) {
	m := Model24GHz()
	if m.LossDB(0.01) != m.LossDB(1) {
		t.Error("sub-metre distances must clamp")
	}
}

func TestNoiseFloor(t *testing.T) {
	b := DefaultLinkBudget(20e6)
	// -174 + 73 + 7 = -94 dBm
	if got := b.NoiseFloorDBm(); math.Abs(got-(-94)) > 0.2 {
		t.Errorf("noise floor = %v dBm, want ~-94", got)
	}
}

func TestSNRDecreasesWithDistance(t *testing.T) {
	b := DefaultLinkBudget(20e6)
	m := Model24GHz()
	if b.SNRdBAt(m, 10) <= b.SNRdBAt(m, 100) {
		t.Error("SNR must fall with distance")
	}
}

// TestLossDBBits pins the path loss bit for bit, through the model and
// through its precomputed curve, to values recorded before the
// breakpoint term was hoisted out of the per-distance loss: below 1 m,
// exactly at the breakpoint and one ulp either side of it, beyond it,
// and at 10 km.
func TestLossDBBits(t *testing.T) {
	m24 := Model24GHz()
	m52 := PathLossModel{FreqHz: 5.2e9, BreakpointM: 5, ExponentFar: 3.5}
	for _, tc := range []struct {
		m    PathLossModel
		d    float64
		bits uint64
	}{
		{m24, 0.25, 0x404406a833321282},
		{m24, 10, 0x404e06a833321282},
		{m24, math.Nextafter(10, 0), 0x404e06a833321280},
		{m24, math.Nextafter(10, 11), 0x404e06a833321282},
		{m24, 37.5, 0x4054092897148a79},
		{m24, 1e4, 0x4064a1aa0ccc84a0},
		{m52, 0.25, 0x40476248e9723974},
		{m52, 5, 0x404e5fa5e4d94e64},
		{m52, math.Nextafter(5, 0), 0x404e5fa5e4d94e64},
		{m52, math.Nextafter(5, 6), 0x404e5fa5e4d94e64},
		{m52, 37.5, 0x4056d7f613edf618},
		{m52, 1e4, 0x40660910cb393a70},
	} {
		for _, got := range []float64{tc.m.LossDB(tc.d), tc.m.Curve().LossDB(tc.d)} {
			if math.Float64bits(got) != tc.bits {
				t.Errorf("%+v at %v m: loss %v (%#x), want %v (%#x)", tc.m, tc.d,
					got, math.Float64bits(got), math.Float64frombits(tc.bits), tc.bits)
			}
		}
	}
}
