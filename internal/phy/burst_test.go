package phy

import (
	"bytes"
	"testing"

	"repro/internal/acquire"
	"repro/internal/channel"
	"repro/internal/rng"
)

// embedBurst surrounds a burst with noise-only padding.
func embedBurst(src *rng.Source, burst []complex128, offset, tail int, noiseVar float64) []complex128 {
	capture := src.ComplexGaussianVec(offset+len(burst)+tail, noiseVar)
	for i, v := range burst {
		capture[offset+i] += v
	}
	return capture
}

func TestRxBurstUnknownOffset(t *testing.T) {
	src := rng.New(1)
	p, _ := NewOfdm(24)
	payload := src.Bytes(200)
	noiseVar := 0.003
	for _, offset := range []int{0, 64, 333} {
		capture := embedBurst(src, p.TxBurst(payload), offset, 120, noiseVar)
		got, ok := p.RxBurst(capture, noiseVar)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("offset %d: burst decode failed", offset)
		}
	}
}

func TestRxBurstWithCFO(t *testing.T) {
	// An uncorrected CFO of even 1e-3 cycles/sample destroys OFDM; the
	// burst path must estimate and remove it.
	src := rng.New(2)
	p, _ := NewOfdm(12)
	payload := src.Bytes(150)
	noiseVar := 0.003
	for _, fo := range []float64{-0.004, 0.0015, 0.008} {
		burst := acquire.ApplyCFO(p.TxBurst(payload), fo)
		capture := embedBurst(src, burst, 97, 100, noiseVar)
		got, ok := p.RxBurst(capture, noiseVar)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("CFO %v: burst decode failed", fo)
		}
	}
}

func TestRxBurstCFOBreaksPlainReceiver(t *testing.T) {
	// Sanity: the genie receiver without CFO correction must fail on the
	// same impaired signal, proving the front-end earns its keep.
	src := rng.New(3)
	p, _ := NewOfdm(12)
	payload := src.Bytes(150)
	rx := acquire.ApplyCFO(p.TxFrame(payload), 0.004)
	if _, ok := p.RxFrame(rx, 0.003); ok {
		t.Skip("plain receiver survived this CFO draw; tighten the offset")
	}
}

func TestRxBurstThroughMultipath(t *testing.T) {
	src := rng.New(4)
	p, _ := NewOfdm(12)
	payload := src.Bytes(150)
	noiseVar := 0.003
	tdl := channel.NewTDL(5, 0.5, src)
	burst := tdl.Apply(p.TxBurst(payload))
	capture := embedBurst(src, burst, 150, 100, noiseVar)
	got, ok := p.RxBurst(capture, noiseVar)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("burst decode failed through multipath")
	}
}

func TestRxBurstNoiseOnly(t *testing.T) {
	src := rng.New(5)
	p, _ := NewOfdm(24)
	capture := src.ComplexGaussianVec(2000, 1)
	if _, ok := p.RxBurst(capture, 1); ok {
		t.Error("decoded a frame out of pure noise")
	}
}

func TestBurstOverhead(t *testing.T) {
	p, _ := NewOfdm(54)
	payload := make([]byte, 100)
	plain := p.TxFrame(payload)
	burst := p.TxBurst(payload)
	if len(burst)-len(plain) != acquire.STFLen() {
		t.Errorf("overhead %d, want %d", len(burst)-len(plain), acquire.STFLen())
	}
}
