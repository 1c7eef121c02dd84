//go:build amd64

package mathx

import "math"

// The functions below are Go ports of the math package's amd64
// assembly (hypot_amd64.s, log_amd64.s, exp_amd64.s), instruction for
// instruction, so they return the bits math.Hypot, math.Log and
// math.Exp return on this architecture for every input. Unlike the
// assembly they are called without an ABI wrapper, their small parts
// inline, and the compiler schedules the caller's loop around them. Every product that feeds a sum is wrapped in float64(...): an
// explicit conversion rounds, which forbids the compiler to fuse the
// two into a multiply-add (as it may at GOAMD64=v3), so each step
// rounds where the assembly's step rounds.

const (
	signMask = 1 << 63
	posInf   = 0x7FF0000000000000
	negInf   = 0xFFF0000000000000
	fracMask = 1<<52 - 1
)

// Hypot returns math.Hypot(p, q) bit for bit: max·√(1+(min/max)²)
// over |p| and |q|, +Inf if either is infinite, NaN if either is NaN,
// and 0 when both are zero.
func Hypot(p, q float64) float64 {
	pb := math.Float64bits(p) &^ signMask
	qb := math.Float64bits(q) &^ signMask
	if pb >= posInf || qb >= posInf {
		if pb == posInf || qb == posInf {
			return math.Inf(1)
		}
		return math.NaN()
	}
	if pb|qb == 0 {
		return 0
	}
	// MAXSD keeps p only when p > q, MINSD keeps q only when q < p;
	// on a tie both hold the same value.
	hi, lo := math.Float64frombits(qb), math.Float64frombits(pb)
	if pb > qb {
		hi, lo = lo, hi
	}
	r := lo / hi
	return hi * math.Sqrt(float64(r*r)+1)
}

// Log10 returns math.Log10(x) bit for bit: math.Log10 is Log(x)
// scaled by the rounded constant 1/Ln10.
func Log10(x float64) float64 {
	return log(x) * (1 / math.Ln10)
}

// log returns math.Log(x) bit for bit. The reduction reads x's bits as
// the assembly does: f1 is x's fraction with exponent −1 and k its
// unbiased exponent + 1, so a subnormal x takes k = −1022 and its raw
// fraction bits, as there. f1 ≤ √2/2 (the assembly's CMPSD "not less
// than" test, written here on the fraction bits, which share f1's
// exponent) doubles f1 and takes one from k.
func log(x float64) float64 {
	const (
		hSqrt2 = 7.07106781186547524401e-01 // √2/2
		ln2Hi  = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
		ln2Lo  = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
		l1     = 6.666666666666735130e-01   // 0x3FE5555555555593
		l2     = 3.999999999940941908e-01   // 0x3FD999999997FA04
		l3     = 2.857142874366239149e-01   // 0x3FD2492494229359
		l4     = 2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
		l5     = 1.818357216161805012e-01   // 0x3FC7466496CB03DE
		l6     = 1.531383769920937332e-01   // 0x3FC39A09D078C69F
		l7     = 1.479819860511658591e-01   // 0x3FC2F112DF3E5244
	)
	b := math.Float64bits(x)
	switch {
	case b&^signMask == 0:
		return math.Inf(-1)
	case b&signMask != 0:
		return math.NaN()
	case b >= posInf:
		return x
	}
	frac := b & fracMask
	// up is 1 when f1 > √2/2 and 0 when f1 is doubled: f1 = 0.5 + frac·2⁻⁵³
	// and hSqrt2 share the exponent, so the fractions order them.
	up := (math.Float64bits(hSqrt2)&fracMask - frac) >> 63
	k := float64(int64(b>>52) - 0x3FE - int64(1-up))
	f := math.Float64frombits(frac|(0x3FF-up)<<52) - 1
	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := float64(l7*s4) + l5
	t1 = float64(t1*s4) + l3
	t1 = float64(t1*s4) + l1
	t1 = s2 * t1
	t2 := float64(l6*s4) + l4
	t2 = float64(t2*s4) + l2
	t2 = s4 * t2
	R := float64(t1) + float64(t2)
	hfsq := float64(0.5 * f * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+R)) + float64(k*ln2Lo))) - f)
}

// useFMA selects exp's path as math.Exp selects its own, on the CPU's
// AVX and FMA support, read here from math.Exp's answers (pickFMA).
var useFMA = pickFMA()

// fmaProbe holds inputs on which exp's two paths round differently,
// so math.Exp's bits on them show which path it takes.
var fmaProbe = [...]float64{
	0.2745100371341431, -1.0987357588830835, -0.22888978146454275,
	-0.18032757593000825, 0.4591024849141143, -0.3027767856428156,
	-0.31114412862916785, -0.32638929938032113,
}

// pickFMA reports whether math.Exp answers every probe as expFMA does.
func pickFMA() bool {
	for _, x := range fmaProbe {
		if math.Float64bits(expFMA(x)) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

// exp returns math.Exp(x) bit for bit.
func exp(x float64) float64 {
	if useFMA {
		return expFMA(x)
	}
	return expPlain(x)
}

// Constants of exp_amd64.s: ln 2 split in an upper part with trailing
// zero bits and the rest, 1/ln 2, the overflow bound, and the Taylor
// coefficients 1/n! for n = 2..8.
const (
	ln2U     = 0.69314718055966295651160180568695068359375
	ln2L     = 0.28235290563031577122588448175013436025525412068e-12
	log2E    = 1.4426950408889634073599246810018920
	overflow = 7.09782712893384e+02
	c2       = 0.5
	c3       = 1.6666666666666666667e-1
	c4       = 4.1666666666666666667e-2
	c5       = 8.3333333333333333333e-3
	c6       = 1.3888888888888888889e-3
	c7       = 1.9841269841269841270e-4
	c8       = 2.4801587301587301587e-5
)

// expRange handles what the assembly decides before it reduces the
// argument, and returns k = round(x·log2E) for the rest. The assembly
// converts with CVTSD2SL, which rounds to nearest even. Below −746,
// k ≤ −1076 and the assembly's denormal branch returns +0; that is
// returned here directly, which keeps k inside int32.
func expRange(x float64) (r float64, k int32, done bool) {
	b := math.Float64bits(x)
	switch {
	case b&^signMask >= posInf:
		if b == negInf {
			return 0, 0, true
		}
		return x, 0, true
	case x > overflow:
		return math.Inf(1), 0, true
	case x < -746:
		return 0, 0, true
	}
	return 0, int32(math.RoundToEven(log2E * x)), false
}

// expScale is the assembly's ldexp tail: fr·2^k, through two factors
// when 2^k is not normal, 0 below 2⁻¹⁰⁷⁵ and +Inf from 2¹⁰²⁴.
func expScale(fr float64, k int32) float64 {
	e := k + 0x3FF
	if e <= 0 {
		if e < -52 {
			return 0
		}
		fr *= math.Float64frombits(uint64(e+0x3FE) << 52)
		e = 1
	} else if e >= 0x7FF {
		return math.Inf(1)
	}
	return fr * math.Float64frombits(uint64(e)<<52)
}

// expPlain is exp_amd64.s's SSE2 path: x − k·ln 2 in two rounded
// steps, scaled by 1/16, a degree-8 Taylor polynomial for e^r − 1,
// squared up four times as y·(y+2), plus one.
func expPlain(x float64) float64 {
	r, k, done := expRange(x)
	if done {
		return r
	}
	kf := float64(k)
	r = x - float64(ln2U*kf)
	r = r - float64(ln2L*kf)
	r *= 0.0625
	p := float64(c8*r) + c7
	p = float64(p*r) + c6
	p = float64(p*r) + c5
	p = float64(p*r) + c4
	p = float64(p*r) + c3
	p = float64(p*r) + c2
	p = float64(p*r) + 1
	y := float64(r * p)
	y = float64(y * (y + 2))
	y = float64(y * (y + 2))
	y = float64(y * (y + 2))
	y = float64(y * (y + 2))
	return expScale(y+1, k)
}

// expFMA is exp_amd64.s's AVX+FMA path: the same steps with the
// reduction, the polynomial and the last squaring's +1 fused.
func expFMA(x float64) float64 {
	r, k, done := expRange(x)
	if done {
		return r
	}
	kf := float64(k)
	r = math.FMA(-kf, ln2U, x)
	r = math.FMA(-kf, ln2L, r)
	r *= 0.0625
	p := math.FMA(c8, r, c7)
	p = math.FMA(p, r, c6)
	p = math.FMA(p, r, c5)
	p = math.FMA(p, r, c4)
	p = math.FMA(p, r, c3)
	p = math.FMA(p, r, c2)
	p = math.FMA(p, r, 1)
	y := float64(r * p)
	y = float64(y * (y + 2))
	y = float64(y * (y + 2))
	y = float64(y * (y + 2))
	return expScale(math.FMA(y, y+2, 1), k)
}
