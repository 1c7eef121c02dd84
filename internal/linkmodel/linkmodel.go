// Package linkmodel provides a fast analytic abstraction of the PHY
// simulations in package phy: per-mode SNR thresholds derived from
// constellation-constrained capacity plus an implementation gap, AWGN
// waterfall shapes, and diversity-order outage curves for fading
// channels. MAC, mesh and range experiments use these closed forms so
// they can sweep thousands of links without Monte-Carlo PHY runs; the
// phy package's measurements validate the ordering and shape.
package linkmodel

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/channel"
	"repro/internal/mathx"
)

// Mode is one PHY operating point reduced to its link-level essentials.
type Mode struct {
	Name         string
	RateMbps     float64
	BandwidthMHz float64
	// SnrReqDB is the mean SNR (per receive antenna, in the occupied
	// bandwidth) at which the AWGN packet error rate is 10%.
	SnrReqDB float64
	// DiversityOrder is the effective number of independently fading
	// branches after combining (1 = none).
	DiversityOrder int
	// ArrayGainDB shifts the mean combined SNR (receive combining or
	// beamforming gain).
	ArrayGainDB float64
	// Streams is the spatial multiplexing order (bookkeeping only).
	Streams int
}

// waterfall width of the coded AWGN PER curve in dB.
const awgnWidthDB = 1.2

// gapDB returns the implementation gap from constellation-constrained
// capacity for each coding family.
func gapDB(ldpc bool) float64 {
	if ldpc {
		return 4.0 // LDPC buys roughly 1 dB over the convolutional code
	}
	return 5.0
}

// thresholdFromEta converts per-carrier (or per-symbol) spectral
// efficiency eta into a 10%-PER SNR threshold.
func thresholdFromEta(eta, gap float64) float64 {
	return 10*math.Log10(math.Pow(2, eta)-1) + gap
}

// PERAwgn evaluates the AWGN packet error rate at the given SNR.
func (m Mode) PERAwgn(snrDB float64) float64 {
	// Calibrated so PER(SnrReqDB) = 10%: erfc(0.9062)/2 = 0.1.
	x := (snrDB-m.SnrReqDB)/awgnWidthDB + 0.9062
	return mathx.Clamp(0.5*math.Erfc(x), 0, 1)
}

// PERFading evaluates the packet error rate under Rayleigh block fading
// with the mode's diversity order: the combined SNR is Gamma-distributed
// (MRC of L branches) and a packet is lost when it falls below the AWGN
// threshold.
func (m Mode) PERFading(meanSnrDB float64) float64 {
	l := m.DiversityOrder
	if l < 1 {
		l = 1
	}
	branchMean := mathx.DBToLinear(meanSnrDB + m.ArrayGainDB - 10*math.Log10(float64(l)))
	if branchMean <= 0 {
		return 1
	}
	need := mathx.DBToLinear(m.SnrReqDB)
	// P(Gamma(L, branchMean) < need), integer L via the Poisson sum.
	x := need / branchMean
	sum := 0.0
	term := 1.0
	for k := 0; k < l; k++ {
		if k > 0 {
			term *= x / float64(k)
		}
		sum += term
	}
	return mathx.Clamp(1-math.Exp(-x)*sum, 0, 1)
}

// PER dispatches on the fading flag.
func (m Mode) PER(meanSnrDB float64, fading bool) float64 {
	if fading {
		return m.PERFading(meanSnrDB)
	}
	return m.PERAwgn(snrWithGain(meanSnrDB, m))
}

func snrWithGain(snrDB float64, m Mode) float64 {
	return snrDB + m.ArrayGainDB
}

// Goodput returns rate x delivery probability at the given mean SNR.
func (m Mode) Goodput(meanSnrDB float64, fading bool) float64 {
	return m.RateMbps * (1 - m.PER(meanSnrDB, fading))
}

// DsssModes returns the 802.11-1997 DSSS link modes. Their in-band
// spectral efficiency is tiny (the processing-gain trade), so they work
// at very low SNR measured in the 20 MHz allocation.
func DsssModes() []Mode {
	out := make([]Mode, 0, 2)
	for _, rate := range []float64{1, 2} {
		eta := rate / 20 * 11 // bits per chip-bandwidth Hz (11 MHz occupied)
		out = append(out, Mode{
			Name:           fmt.Sprintf("DSSS %g Mbps", rate),
			RateMbps:       rate,
			BandwidthMHz:   20,
			SnrReqDB:       thresholdFromEta(eta, gapDB(false)),
			DiversityOrder: 1,
			Streams:        1,
		})
	}
	return out
}

// CckModes returns the 802.11b link modes.
func CckModes() []Mode {
	out := make([]Mode, 0, 2)
	for _, rate := range []float64{5.5, 11} {
		eta := rate / 11 // bits per occupied Hz at the 11 Mchip rate
		out = append(out, Mode{
			Name:           fmt.Sprintf("CCK %g Mbps", rate),
			RateMbps:       rate,
			BandwidthMHz:   20,
			SnrReqDB:       thresholdFromEta(eta, gapDB(false)),
			DiversityOrder: 1,
			Streams:        1,
		})
	}
	return out
}

// ofdmEta maps 802.11a/g rates to coded bits per data carrier.
var ofdmEta = map[float64]float64{
	6: 0.5, 9: 0.75, 12: 1, 18: 1.5, 24: 2, 36: 3, 48: 4, 54: 4.5,
}

// OfdmModes returns the 802.11a/g link modes.
func OfdmModes() []Mode {
	rates := []float64{6, 9, 12, 18, 24, 36, 48, 54}
	out := make([]Mode, 0, len(rates))
	for _, r := range rates {
		out = append(out, Mode{
			Name:           fmt.Sprintf("OFDM %g Mbps", r),
			RateMbps:       r,
			BandwidthMHz:   20,
			SnrReqDB:       thresholdFromEta(ofdmEta[r], gapDB(false)),
			DiversityOrder: 1,
			Streams:        1,
		})
	}
	return out
}

// htPerStreamEta lists coded bits per carrier per stream for MCS 0-7.
var htPerStreamEta = []float64{0.5, 1, 1.5, 2, 3, 4, 4.5, 5}

// HtOptions configures an 802.11n mode family.
type HtOptions struct {
	Streams  int  // spatial streams (1-4)
	RxChains int  // receive antennas
	Width40  bool // 40 MHz channel
	ShortGI  bool
	LDPC     bool
	Beamform bool // closed-loop eigen-beamforming (adds TX array gain)
	TxChains int  // used for the beamforming gain; defaults to Streams
}

// HtFamily returns the eight per-stream-MCS link modes for the option set.
// Diversity order reflects the receive-side spatial degrees of freedom
// left after separating the streams (NRx - Nss + 1); beamforming adds the
// transmit array gain on top.
func HtFamily(opt HtOptions) []Mode {
	if opt.Streams < 1 || opt.Streams > 4 {
		panic("linkmodel: streams must be 1..4")
	}
	if opt.RxChains < opt.Streams {
		panic("linkmodel: need at least as many RX chains as streams")
	}
	tx := opt.TxChains
	if tx == 0 {
		tx = opt.Streams
	}
	ndata, bw := 52.0, 20.0
	if opt.Width40 {
		ndata, bw = 108.0, 40.0
	}
	symbolUs := 4.0
	if opt.ShortGI {
		symbolUs = 3.6
	}
	div := opt.RxChains - opt.Streams + 1
	arrayGain := 10 * math.Log10(float64(opt.RxChains)/float64(opt.Streams))
	if opt.Beamform {
		// Dominant-eigenchannel transmit gain ~ 10log10(NTx) for one
		// stream, shrinking as more eigenchannels are used.
		arrayGain += 10 * math.Log10(float64(tx)/float64(opt.Streams))
		div += tx - opt.Streams
	}
	code := "BCC"
	if opt.LDPC {
		code = "LDPC"
	}
	out := make([]Mode, 0, 8)
	for mcs := 0; mcs < 8; mcs++ {
		eta := htPerStreamEta[mcs]
		rate := ndata * eta * float64(opt.Streams) / symbolUs
		out = append(out, Mode{
			Name:           fmt.Sprintf("HT MCS%d %dss %s %.0fMHz", mcs, opt.Streams, code, bw),
			RateMbps:       rate,
			BandwidthMHz:   bw,
			SnrReqDB:       thresholdFromEta(eta, gapDB(opt.LDPC)) + 10*math.Log10(float64(opt.Streams)),
			DiversityOrder: div,
			ArrayGainDB:    arrayGain,
			Streams:        opt.Streams,
		})
	}
	return out
}

// HtModes returns the full 802.11n rate-adaptation ladder for a device
// with nss spatial streams at the given operating channel width: MCS 0-7
// for every stream count 1..nss, at 20 MHz and — when widthMHz is 40 —
// also at 40 MHz. Receive chains are direct-mapped (RxChains = Streams),
// so each entry's SnrReqDB is the calibratable AWGN threshold the phy
// package measures, with no diversity or array-gain margin folded in.
// The ladder is sorted slowest-first (ties broken most-robust-first),
// which keeps index 0 the most robust entry for fallback seeding and
// gives rate controllers a monotone rate axis to walk.
func HtModes(nss, widthMHz int) []Mode {
	if nss < 1 || nss > 4 {
		panic("linkmodel: HtModes streams must be 1..4")
	}
	if widthMHz != 20 && widthMHz != 40 {
		panic("linkmodel: HtModes width must be 20 or 40 MHz")
	}
	widths := []bool{false}
	if widthMHz == 40 {
		widths = append(widths, true)
	}
	var out []Mode
	for _, w40 := range widths {
		for s := 1; s <= nss; s++ {
			out = append(out, HtFamily(HtOptions{Streams: s, RxChains: s, Width40: w40})...)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].RateMbps != out[j].RateMbps {
			return out[i].RateMbps < out[j].RateMbps
		}
		return out[i].SnrReqDB < out[j].SnrReqDB
	})
	return out
}

// BestMode returns the highest-goodput mode at the given mean SNR, or
// the most robust mode if everything is above the PER ceiling.
func BestMode(modes []Mode, meanSnrDB float64, fading bool, perCeiling float64) (Mode, float64) {
	bestIdx, bestGoodput := -1, -1.0
	for i, m := range modes {
		if m.PER(meanSnrDB, fading) > perCeiling {
			continue
		}
		if g := m.Goodput(meanSnrDB, fading); g > bestGoodput {
			bestIdx, bestGoodput = i, g
		}
	}
	if bestIdx < 0 {
		// Nothing meets the ceiling: fall back to the most robust mode.
		robust := 0
		for i, m := range modes {
			if m.SnrReqDB < modes[robust].SnrReqDB {
				robust = i
			}
		}
		return modes[robust], modes[robust].Goodput(meanSnrDB, fading)
	}
	return modes[bestIdx], bestGoodput
}

// Link couples a mode set to a link budget and path-loss model so
// distance sweeps read naturally.
type Link struct {
	Modes    []Mode
	Budget   channel.LinkBudget
	PathLoss channel.PathLossModel
	Fading   bool
}

// SNRAt returns the mean SNR at distance d metres.
func (l Link) SNRAt(d float64) float64 {
	return l.Budget.SNRdBAt(l.PathLoss, d)
}

// GoodputAt returns the best achievable goodput at distance d.
func (l Link) GoodputAt(d float64) float64 {
	_, g := BestMode(l.Modes, l.SNRAt(d), l.Fading, 0.1)
	return g
}

// RangeForRate returns the maximum distance at which goodput still meets
// minMbps, bisecting between 1 m and 10 km.
func (l Link) RangeForRate(minMbps float64) float64 {
	if l.GoodputAt(1) < minMbps {
		return 0
	}
	lo, hi := 1.0, 10000.0
	if l.GoodputAt(hi) >= minMbps {
		return hi
	}
	for i := 0; i < 60; i++ {
		mid := math.Sqrt(lo * hi)
		if l.GoodputAt(mid) >= minMbps {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
