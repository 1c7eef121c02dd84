package bitutil

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBytesBitsRoundTrip(t *testing.T) {
	data := []byte{0x00, 0xFF, 0xA5, 0x3C, 0x01}
	bits := BytesToBits(data)
	if len(bits) != len(data)*8 {
		t.Fatalf("bit count = %d, want %d", len(bits), len(data)*8)
	}
	back := BitsToBytes(bits)
	if !bytes.Equal(back, data) {
		t.Errorf("round trip %x -> %x", data, back)
	}
}

func TestBytesToBitsOrder(t *testing.T) {
	// 0x01 must transmit LSB first: 1 then seven zeros.
	bits := BytesToBits([]byte{0x01})
	want := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(bits, want) {
		t.Errorf("bits of 0x01 = %v, want %v", bits, want)
	}
	bits = BytesToBits([]byte{0x80})
	want = []byte{0, 0, 0, 0, 0, 0, 0, 1}
	if !bytes.Equal(bits, want) {
		t.Errorf("bits of 0x80 = %v, want %v", bits, want)
	}
}

func TestBitsToBytesPartial(t *testing.T) {
	out := BitsToBytes([]byte{1, 1, 0, 1})
	if len(out) != 1 || out[0] != 0x0B {
		t.Errorf("partial pack = %x, want 0b1011", out)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(BitsToBytes(BytesToBits(data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// prbsBits draws the next n bits of p.
func prbsBits(p *PRBS, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = p.Next()
	}
	return out
}

func ones(bits []byte) int {
	n := 0
	for _, b := range bits {
		n += int(b)
	}
	return n
}

func TestPRBSPeriod(t *testing.T) {
	// A maximal-length 7-bit LFSR has period 127.
	p := NewPRBS(0x7F)
	seq := prbsBits(p, 254)
	for i := 0; i < 127; i++ {
		if seq[i] != seq[i+127] {
			t.Fatalf("sequence not periodic with period 127 at %d", i)
		}
	}
	// Within one period it must not repeat with any shorter period that
	// divides evenly into a check window.
	half := true
	for i := 0; i < 63; i++ {
		if seq[i] != seq[i+63] {
			half = false
			break
		}
	}
	if half {
		t.Error("PRBS repeated with period 63; LFSR is not maximal length")
	}
}

func TestPRBSBalance(t *testing.T) {
	// Maximal-length sequences contain 64 ones and 63 zeros per period.
	p := NewPRBS(1)
	seq := prbsBits(p, 127)
	if got := ones(seq); got != 64 {
		t.Errorf("ones per period = %d, want 64", got)
	}
}

func TestPRBSZeroSeed(t *testing.T) {
	p := NewPRBS(0)
	seq := prbsBits(p, 127)
	if ones(seq) == 0 {
		t.Error("zero seed must be remapped; got all-zero sequence")
	}
}

func TestFCSMatchesStdlib(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	if got, want := FCS32(data), crc32.ChecksumIEEE(data); got != want {
		t.Errorf("FCS32 = %08x, stdlib = %08x", got, want)
	}
}

func TestAppendCheckFCS(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	frame := AppendFCS(payload)
	if len(frame) != len(payload)+4 {
		t.Fatalf("frame length = %d", len(frame))
	}
	got, ok := CheckFCS(frame)
	if !ok {
		t.Fatal("CheckFCS rejected an intact frame")
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload mismatch: %v", got)
	}
}

func TestCheckFCSDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 64)
	rng.Read(payload)
	frame := AppendFCS(payload)
	for trial := 0; trial < 200; trial++ {
		corrupted := append([]byte(nil), frame...)
		pos := rng.Intn(len(corrupted))
		bit := byte(1) << uint(rng.Intn(8))
		corrupted[pos] ^= bit
		if _, ok := CheckFCS(corrupted); ok {
			t.Fatalf("single-bit corruption at byte %d undetected", pos)
		}
	}
}

func TestCheckFCSShortFrame(t *testing.T) {
	if _, ok := CheckFCS([]byte{1, 2, 3}); ok {
		t.Error("frame shorter than FCS must be rejected")
	}
}

func TestFCSProperty(t *testing.T) {
	f := func(data []byte) bool {
		_, ok := CheckFCS(AppendFCS(data))
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
