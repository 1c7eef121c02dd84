// Package bitutil implements the bit-level plumbing used throughout the
// 802.11 stack: byte/bit conversion in the standard's LSB-first order,
// pseudo-random binary sequences, and the 32-bit frame check sequence.
package bitutil

// BytesToBits expands each byte into eight bits, least-significant bit
// first, which is the transmission order used by every 802.11 PHY.
func BytesToBits(data []byte) []byte {
	bits := make([]byte, 0, len(data)*8)
	for _, b := range data {
		for i := 0; i < 8; i++ {
			bits = append(bits, (b>>uint(i))&1)
		}
	}
	return bits
}

// BitsToBytes packs bits (LSB first within each byte) back into bytes. A
// trailing partial byte is zero-padded in its high bits.
func BitsToBytes(bits []byte) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, bit := range bits {
		if bit&1 == 1 {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// PRBS is a linear-feedback shift register producing the self-synchronous
// pseudo-random sequence x^7 + x^4 + 1 that 802.11 uses for scrambling.
type PRBS struct {
	state uint8 // 7-bit state, never zero
}

// NewPRBS creates a generator with the given 7-bit seed. A zero seed is
// replaced by the standard's all-ones initial state so that the register
// never locks up.
func NewPRBS(seed uint8) *PRBS {
	s := seed & 0x7F
	if s == 0 {
		s = 0x7F
	}
	return &PRBS{state: s}
}

// Next produces the next pseudo-random bit.
func (p *PRBS) Next() byte {
	// Feedback is x^7 XOR x^4 of the current state.
	fb := ((p.state >> 6) ^ (p.state >> 3)) & 1
	p.state = ((p.state << 1) | fb) & 0x7F
	return fb
}

// crcTable is the CRC-32 lookup table for the IEEE 802.3/802.11 polynomial
// 0x04C11DB7 (reflected form 0xEDB88320), built at init time so the package
// has no dependency beyond the language itself.
var crcTable [256]uint32

func init() {
	const poly = 0xEDB88320
	for i := range crcTable {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = (c >> 1) ^ poly
			} else {
				c >>= 1
			}
		}
		crcTable[i] = c
	}
}

// FCS32 computes the 802.11 frame check sequence (CRC-32, IEEE polynomial,
// initial value all ones, final complement) over data.
func FCS32(data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		crc = crcTable[byte(crc)^b] ^ (crc >> 8)
	}
	return ^crc
}

// AppendFCS returns data with its 4-byte FCS appended little-endian, the
// order in which 802.11 transmits it.
func AppendFCS(data []byte) []byte {
	fcs := FCS32(data)
	out := append(append([]byte(nil), data...),
		byte(fcs), byte(fcs>>8), byte(fcs>>16), byte(fcs>>24))
	return out
}

// CheckFCS reports whether frame (payload plus trailing 4-byte FCS) is
// intact, and returns the payload with the FCS stripped when it is.
func CheckFCS(frame []byte) ([]byte, bool) {
	if len(frame) < 4 {
		return nil, false
	}
	payload := frame[:len(frame)-4]
	want := uint32(frame[len(frame)-4]) |
		uint32(frame[len(frame)-3])<<8 |
		uint32(frame[len(frame)-2])<<16 |
		uint32(frame[len(frame)-1])<<24
	if FCS32(payload) != want {
		return nil, false
	}
	return payload, true
}
