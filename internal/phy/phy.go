// Package phy assembles the substrate packages into complete 802.11
// physical layers, one per generation the paper narrates:
//
//   - Dsss: the original 802.11 DSSS PHY at 1 and 2 Mbps
//   - Fhss: the frequency-hopping alternative at 1 and 2 Mbps
//   - Cck: 802.11b at 5.5 and 11 Mbps
//   - Ofdm: 802.11a/g at 6..54 Mbps
//   - Ht: 802.11n MIMO-OFDM, MCS 0-31, 20/40 MHz, BCC or LDPC,
//     optional STBC and closed-loop SVD beamforming
//
// Every PHY transmits frames of [length | payload | FCS32] and reports
// reception success via the frame check sequence, so packet-error-rate
// measurements mean the same thing across generations.
package phy

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/channel"
	"repro/internal/rng"
)

// LinkPHY is a single-antenna PHY: it turns frames into unit-mean-power
// baseband samples and back.
type LinkPHY interface {
	// Name identifies the PHY and mode, e.g. "802.11b CCK 11 Mbps".
	Name() string
	// RateMbps returns the nominal PHY data rate.
	RateMbps() float64
	// BandwidthMHz returns the occupied channel bandwidth.
	BandwidthMHz() float64
	// TxFrame modulates a payload into baseband samples with unit mean
	// power.
	TxFrame(payload []byte) []complex128
	// RxFrame demodulates samples; noiseVar is the receiver's estimate of
	// the complex noise variance (known exactly in simulation). It returns
	// the payload and whether the frame check passed.
	RxFrame(samples []complex128, noiseVar float64) ([]byte, bool)
}

// wrapFrame builds the on-air frame body: a 2-byte little-endian length,
// the payload, and the 32-bit FCS over both.
func wrapFrame(payload []byte) []byte {
	if len(payload) > 0xFFFF {
		panic("phy: payload too large")
	}
	hdr := make([]byte, 2+len(payload))
	binary.LittleEndian.PutUint16(hdr, uint16(len(payload)))
	copy(hdr[2:], payload)
	return bitutil.AppendFCS(hdr)
}

// unwrapFrame validates the FCS and length field, returning the payload.
func unwrapFrame(frame []byte) ([]byte, bool) {
	body, ok := bitutil.CheckFCS(frame)
	if !ok || len(body) < 2 {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint16(body))
	if n != len(body)-2 {
		return nil, false
	}
	return body[2:], true
}

// frameBits converts a wrapped frame to transmission-order bits.
func frameBits(payload []byte) []byte {
	return bitutil.BytesToBits(wrapFrame(payload))
}

// bitsToFrame parses the length header from the first two decoded bytes,
// slices the frame to its true extent (discarding PHY padding bits), and
// unwraps it. A corrupted length field fails the range or FCS check.
func bitsToFrame(bits []byte) ([]byte, bool) {
	if len(bits) < 16 {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint16(bitutil.BitsToBytes(bits[:16])))
	frameLen := (2 + n + 4) * 8
	if frameLen > len(bits) {
		return nil, false
	}
	return unwrapFrame(bitutil.BitsToBytes(bits[:frameLen]))
}

// scramblerSeed is the fixed initial state used by all PHYs here; 802.11
// rotates it per frame, which does not affect error statistics.
const scramblerSeed = 0x5D

// ChannelFactory draws a fresh channel realization per frame.
type ChannelFactory func(src *rng.Source) *channel.TDL

// AWGNChannel is a unit flat channel (no fading).
func AWGNChannel(*rng.Source) *channel.TDL { return channel.Flat(1) }

// RayleighChannel draws flat Rayleigh block fading.
func RayleighChannel(src *rng.Source) *channel.TDL {
	return channel.Flat(channel.RayleighCoeff(src))
}

// MultipathChannel returns a factory for n-tap exponential channels.
func MultipathChannel(nTaps int, decay float64) ChannelFactory {
	return func(src *rng.Source) *channel.TDL {
		return channel.NewTDL(nTaps, decay, src)
	}
}

// PERResult summarizes a packet-error-rate measurement.
type PERResult struct {
	SNRdB    float64
	Frames   int
	Errors   int
	BitsSent int
	BitErrs  int
}

// PER returns the packet error rate.
func (r PERResult) PER() float64 {
	if r.Frames == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Frames)
}

// BER returns the approximate payload bit error rate (frames that fail
// FCS count their mismatching payload bits when lengths align).
func (r PERResult) BER() float64 {
	if r.BitsSent == 0 {
		return 0
	}
	return float64(r.BitErrs) / float64(r.BitsSent)
}

// MeasurePER runs nFrames through fresh channel realizations at the given
// SNR (per-sample, since PHY waveforms are unit power) and counts frame
// failures.
func MeasurePER(p LinkPHY, factory ChannelFactory, snrDB float64, payloadLen, nFrames int, src *rng.Source) PERResult {
	noiseVar := channel.NoiseVarFromSNRdB(snrDB)
	res := PERResult{SNRdB: snrDB, Frames: nFrames}
	for f := 0; f < nFrames; f++ {
		payload := src.Bytes(payloadLen)
		tx := p.TxFrame(payload)
		ch := factory(src)
		rx := channel.AWGN(ch.Apply(tx), noiseVar, src)
		got, ok := p.RxFrame(rx, noiseVar)
		res.BitsSent += payloadLen * 8
		if !ok {
			res.Errors++
			res.BitErrs += payloadErrors(payload, got)
			continue
		}
		if !byteSlicesEqual(got, payload) {
			// FCS collision: astronomically rare but count it as an error.
			res.Errors++
			res.BitErrs += payloadErrors(payload, got)
		}
	}
	return res
}

func payloadErrors(want, got []byte) int {
	if len(got) != len(want) {
		return len(want) * 4 // half the bits, the expected garbage rate
	}
	errs := 0
	for i := range want {
		x := want[i] ^ got[i]
		for ; x != 0; x &= x - 1 {
			errs++
		}
	}
	return errs
}

func byteSlicesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SNRForPER bisects transmit SNR until the measured PER crosses target.
// It is the workhorse behind rate-vs-range curves: combined with a path
// loss model it converts a PER requirement into a distance.
func SNRForPER(p LinkPHY, factory ChannelFactory, target float64, payloadLen, nFrames int, src *rng.Source) float64 {
	lo, hi := -10.0, 45.0
	for iter := 0; iter < 12; iter++ {
		mid := (lo + hi) / 2
		per := MeasurePER(p, factory, mid, payloadLen, nFrames, src.Split()).PER()
		if per > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// ModeError reports an unsupported rate or configuration.
type ModeError struct {
	PHY  string
	Want string
}

func (e *ModeError) Error() string {
	return fmt.Sprintf("phy: %s supports %s", e.PHY, e.Want)
}
