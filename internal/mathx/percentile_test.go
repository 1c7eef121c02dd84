package mathx

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sort"
	"testing"
)

// sortPercentile is the sort-based Percentile the selection replaced,
// kept as the reference: copy, sort, interpolate.
func sortPercentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return Lerp(s[i], s[i+1], frac)
}

// sameFloat reports bit equality, except that any two zeros match and
// any two NaNs match: a sort places +0 and −0 (and NaNs of different
// payloads) in an order of its own, so the reference fixes neither.
func sameFloat(a, b float64) bool {
	if a == 0 && b == 0 || a != a && b != b {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// decodePercentileInput turns fuzz bytes into samples. Narrow inputs
// map each byte onto eight values (0, −0 and six positives), so ties
// are heavy and zeros common — a flow's delays repeat exactly on a
// clean link. Wide inputs read eight bytes per float64, any bits at
// all, NaNs and infinities included.
func decodePercentileInput(data []byte, wide bool) []float64 {
	var xs []float64
	if wide {
		for ; len(data) >= 8; data = data[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		return xs
	}
	for _, b := range data {
		v := float64(b%8) * 1.5
		if b%8 == 0 && b >= 128 {
			v = math.Copysign(0, -1)
		}
		xs = append(xs, v)
	}
	return xs
}

// percentileAt maps a byte onto p: the four percentiles the simulator
// and its tests read, or an arbitrary point of [0, 100].
func percentileAt(sel uint8) float64 {
	if sel < 4 {
		return []float64{0, 50, 95, 100}[sel]
	}
	return float64(sel) / 255 * 100
}

// FuzzPercentile holds the selection-based Percentile to the sort-based
// reference bit for bit (sameFloat) and checks that it leaves its input
// untouched; PercentileInPlace must agree with it on a copy. The seeds
// cover every length from 1 to 40 in ascending, descending, tied and
// mixed layouts at p ∈ {0, 50, 95, 100}.
func FuzzPercentile(f *testing.F) {
	for n := 1; n <= 40; n++ {
		asc, desc, tied, mixed := make([]byte, n), make([]byte, n), make([]byte, n), make([]byte, n)
		for i := range n {
			asc[i] = byte(i)
			desc[i] = byte(n - i)
			tied[i] = byte(3 + 128*(i%2))
			mixed[i] = byte(i*37 + n)
		}
		for sel := range uint8(4) {
			f.Add(asc, sel, false)
			f.Add(desc, sel, false)
			f.Add(tied, sel, false)
			f.Add(mixed, sel, false)
		}
	}
	var wide []byte
	for _, x := range []float64{math.NaN(), 3, math.Inf(-1), -2, math.Inf(1), 0, math.Copysign(0, -1), 5e-324, 3} {
		wide = binary.LittleEndian.AppendUint64(wide, math.Float64bits(x))
	}
	for sel := range uint8(4) {
		f.Add(wide, sel, true)
	}
	f.Add(wide, uint8(200), true)
	f.Fuzz(func(t *testing.T, data []byte, sel uint8, wideIn bool) {
		xs := decodePercentileInput(data, wideIn)
		if len(xs) == 0 {
			return
		}
		p := percentileAt(sel)
		orig := append([]float64(nil), xs...)
		want := sortPercentile(xs, p)
		got := Percentile(xs, p)
		if !sameFloat(got, want) {
			t.Fatalf("Percentile(%v, %v) = %v (%#x), the sort gives %v (%#x)",
				orig, p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("Percentile reordered its input: %v became %v", orig, xs)
			}
		}
		if inPlace := PercentileInPlace(append([]float64(nil), xs...), p); !sameFloat(inPlace, want) {
			t.Fatalf("PercentileInPlace(%v, %v) = %v, the sort gives %v", orig, p, inPlace, want)
		}
	})
}

// TestSelectNthAdversarial runs selection over layouts that stress the
// median-of-three pivot and equal runs, at lengths well past the fuzz
// seeds, checking every order statistic against a sort — with the pass
// budget Percentile gives it, and with budgets of 0–2 passes, which
// finish through the fallback sort.
func TestSelectNthAdversarial(t *testing.T) {
	layouts := map[string]func(i, n int) float64{
		"ascending":  func(i, n int) float64 { return float64(i) },
		"descending": func(i, n int) float64 { return float64(n - i) },
		"constant":   func(i, n int) float64 { return 7 },
		"two-values": func(i, n int) float64 { return float64(i % 2) },
		"organ-pipe": func(i, n int) float64 { return float64(min(i, n-i)) },
		"sawtooth":   func(i, n int) float64 { return float64(i % 17) },
	}
	for name, gen := range layouts {
		for _, n := range []int{2, 3, 255, 1024} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen(i, n)
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, passes := range []int{2 * bits.Len(uint(n)), 0, 1, 2} {
				for k := range n {
					s := append([]float64(nil), xs...)
					selectNth(s, k, passes)
					if s[k] != sorted[k] {
						t.Fatalf("%s n=%d passes=%d: selectNth put %v at %d, the sort has %v",
							name, n, passes, s[k], k, sorted[k])
					}
					for i := range s {
						if i < k && s[i] > s[k] || i > k && s[i] < s[k] {
							t.Fatalf("%s n=%d passes=%d k=%d: %v at %d is on the wrong side of %v",
								name, n, passes, k, s[i], i, s[k])
						}
					}
				}
			}
		}
	}
}
