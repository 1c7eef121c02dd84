package fec

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/rng"
)

var ldpcRates = []CodeRate{Rate1_2, Rate2_3, Rate3_4, Rate5_6}

func TestLDPCDimensions(t *testing.T) {
	for _, r := range ldpcRates {
		l := NewLDPC(r, 27)
		if l.N() != 648 {
			t.Errorf("rate %v: N = %d, want 648", r, l.N())
		}
		wantK := int(float64(l.N()) * r.Value())
		if l.K() != wantK {
			t.Errorf("rate %v: K = %d, want %d", r, l.K(), wantK)
		}
	}
}

// TestLDPCConstructionDeterministic builds each code twice: the base
// matrix must depend on nothing but the rate and Z.
func TestLDPCConstructionDeterministic(t *testing.T) {
	for _, r := range ldpcRates {
		a, b := NewLDPC(r, 27), NewLDPC(r, 27)
		if !slices.Equal(a.entries, b.entries) {
			t.Errorf("rate %v: two builds have different base matrices", r)
		}
	}
}

func TestLDPCEncodeSatisfiesParity(t *testing.T) {
	src := rng.New(1)
	for _, r := range ldpcRates {
		l := NewLDPC(r, 27)
		for trial := 0; trial < 5; trial++ {
			cw := l.Encode(src.Bits(l.K()))
			if !l.CheckParity(cw) {
				t.Errorf("rate %v trial %d: H*c != 0", r, trial)
			}
		}
	}
}

func TestLDPCEncodeSystematic(t *testing.T) {
	l := NewLDPC(Rate1_2, 27)
	src := rng.New(2)
	info := src.Bits(l.K())
	cw := l.Encode(info)
	if !bytes.Equal(cw[:l.K()], info) {
		t.Error("codeword is not systematic")
	}
}

func TestLDPCLinear(t *testing.T) {
	// Code linearity: encode(a) XOR encode(b) = encode(a XOR b).
	l := NewLDPC(Rate1_2, 27)
	src := rng.New(3)
	a := src.Bits(l.K())
	b := src.Bits(l.K())
	ab := make([]byte, l.K())
	for i := range ab {
		ab[i] = a[i] ^ b[i]
	}
	ca, cb, cab := l.Encode(a), l.Encode(b), l.Encode(ab)
	for i := range cab {
		if cab[i] != ca[i]^cb[i] {
			t.Fatal("code is not linear")
		}
	}
}

func TestLDPCDecodeNoiseless(t *testing.T) {
	src := rng.New(4)
	for _, r := range ldpcRates {
		l := NewLDPC(r, 27)
		info := src.Bits(l.K())
		cw := l.Encode(info)
		llrs := make([]float64, l.N())
		for i, b := range cw {
			if b == 0 {
				llrs[i] = 8
			} else {
				llrs[i] = -8
			}
		}
		got, ok := l.Decode(llrs, 20)
		if !ok {
			t.Errorf("rate %v: noiseless decode reported failure", r)
		}
		if !bytes.Equal(got, info) {
			t.Errorf("rate %v: noiseless decode wrong", r)
		}
	}
}

func TestLDPCDecodeCorrectsNoise(t *testing.T) {
	// BPSK over AWGN at an SNR where raw BER is a few percent: the decoder
	// must recover the codeword.
	src := rng.New(5)
	l := NewLDPC(Rate1_2, 27)
	const sigma = 0.68 // raw BER ~ Q(1/0.68) ~ 7%
	okCount := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		info := src.Bits(l.K())
		cw := l.Encode(info)
		llrs := make([]float64, l.N())
		rawErrs := 0
		for i, b := range cw {
			x := 1.0
			if b == 1 {
				x = -1.0
			}
			y := x + src.Gaussian(0, sigma)
			llrs[i] = 2 * y / (sigma * sigma)
			if (y < 0) != (b == 1) {
				rawErrs++
			}
		}
		if rawErrs == 0 {
			continue
		}
		got, ok := l.Decode(llrs, 50)
		if ok && bytes.Equal(got, info) {
			okCount++
		}
	}
	if okCount < trials*3/4 {
		t.Errorf("decoder fixed only %d/%d noisy blocks", okCount, trials)
	}
}

func TestLDPCDecodeFlagsFailure(t *testing.T) {
	// Garbage input should (almost surely) fail parity and say so.
	l := NewLDPC(Rate1_2, 27)
	src := rng.New(6)
	llrs := make([]float64, l.N())
	for i := range llrs {
		llrs[i] = src.Gaussian(0, 1)
	}
	_, ok := l.Decode(llrs, 10)
	if ok {
		t.Error("decoder claimed success on random noise")
	}
}

func TestLDPCZ54(t *testing.T) {
	l := NewLDPC(Rate3_4, 54)
	if l.N() != 1296 {
		t.Fatalf("N = %d, want 1296", l.N())
	}
	src := rng.New(7)
	info := src.Bits(l.K())
	cw := l.Encode(info)
	if !l.CheckParity(cw) {
		t.Error("Z=54 parity fails")
	}
}

func TestLDPCRejectsBadInput(t *testing.T) {
	l := NewLDPC(Rate1_2, 27)
	defer func() {
		if recover() == nil {
			t.Error("Encode with wrong length should panic")
		}
	}()
	l.Encode(make([]byte, 5))
}

func TestLDPCCheckParityWrongLength(t *testing.T) {
	l := NewLDPC(Rate1_2, 27)
	if l.CheckParity(make([]byte, 3)) {
		t.Error("CheckParity accepted wrong-length word")
	}
}

func BenchmarkLDPCDecode(b *testing.B) {
	src := rng.New(8)
	l := NewLDPC(Rate1_2, 27)
	info := src.Bits(l.K())
	cw := l.Encode(info)
	llrs := make([]float64, l.N())
	for i, bit := range cw {
		x := 1.0
		if bit == 1 {
			x = -1.0
		}
		llrs[i] = 2 * (x + src.Gaussian(0, 0.6)) / 0.36
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Decode(llrs, 50)
	}
}

func BenchmarkViterbiDecode(b *testing.B) {
	src := rng.New(9)
	info := src.Bits(1000)
	coded := ConvEncode(info, Rate1_2)
	llrs := make([]float64, len(coded))
	for i, bit := range coded {
		x := 1.0
		if bit == 1 {
			x = -1.0
		}
		llrs[i] = 2 * (x + src.Gaussian(0, 0.5)) / 0.25
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ViterbiDecode(llrs, Rate1_2, len(info))
	}
}
