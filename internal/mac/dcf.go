// Package mac holds the 802.11 medium access layer's parameters and
// controllers: DCF timing and contention windows, the ARF and
// Minstrel rate-adaptation controllers, and the beacon-based power-save
// mode whose latency/energy trade the paper's low-power section calls
// for. The distributed coordination function itself (CSMA/CA with
// binary exponential backoff, RTS/CTS and NAV) runs packet by packet in
// internal/netsim, which TestBianchiSaturationAnchor holds to Bianchi's
// saturation model and TestHiddenPairAnchor to a hidden-terminal closed
// form.
package mac

// DcfConfig holds the timing and contention parameters of one PHY era.
type DcfConfig struct {
	SlotUs     float64
	SIFSUs     float64
	DIFSUs     float64
	CWMin      int // initial contention window (slots - 1)
	CWMax      int
	AckUs      float64 // ACK frame duration
	PlcpUs     float64 // preamble + header overhead per frame
	RetryLimit int
}

// Dot11bDcf returns 802.11b timing (long preamble).
func Dot11bDcf() DcfConfig {
	return DcfConfig{SlotUs: 20, SIFSUs: 10, DIFSUs: 50, CWMin: 31, CWMax: 1023,
		AckUs: 112, PlcpUs: 192, RetryLimit: 7}
}

// Dot11agDcf returns 802.11a/g timing.
func Dot11agDcf() DcfConfig {
	return DcfConfig{SlotUs: 9, SIFSUs: 16, DIFSUs: 34, CWMin: 15, CWMax: 1023,
		AckUs: 44, PlcpUs: 20, RetryLimit: 7}
}
