package phy

import (
	"repro/internal/acquire"
)

// This file adds the acquisition-aware burst path to the OFDM PHY: the
// plain TxFrame/RxFrame pair assumes the receiver knows where the frame
// starts and shares the transmitter's oscillator; TxBurst/RxBurst drop
// both assumptions using the acquire package's front-end.

// TxBurst prepends the short training field so a receiver can detect and
// synchronize to the frame inside an arbitrary capture.
func (o *Ofdm) TxBurst(payload []byte) []complex128 {
	stf := acquire.BuildSTF(o.grid)
	return append(stf, o.TxFrame(payload)...)
}

// RxBurst locates a burst inside the capture (which may begin with noise
// or silence), estimates and corrects the carrier frequency offset from
// the training fields, and decodes the frame. The detection threshold of
// 0.6 keeps the false-alarm rate on pure noise negligible.
func (o *Ofdm) RxBurst(capture []complex128, noiseVar float64) ([]byte, bool) {
	det := acquire.Detect(capture, 0.6)
	if !det.Found {
		return nil, false
	}
	corrected := acquire.CorrectCFO(capture, det.CoarseFo)
	// det.Start sits somewhere on the autocorrelation plateau (anywhere
	// within the STF); search for the LTF from there.
	ltfStart := acquire.FineTiming(corrected, o.grid, det.Start)
	fine := acquire.FineCFO(corrected, o.grid, ltfStart)
	frame := acquire.CorrectCFO(corrected[ltfStart:], fine)
	return o.RxFrame(frame, noiseVar)
}
