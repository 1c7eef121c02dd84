package netsim

import (
	"fmt"
	"math"

	"repro/internal/mac"
)

// 802.11e EDCA: four prioritized access categories, each contending
// with its own AIFS (arbitration inter-frame space) and contention
// window. A smaller AIFSN and CW let a category seize the medium ahead
// of the others; DefaultEdca holds the standard's mapping of voice
// ahead of video ahead of best effort ahead of background.

// AC indexes the four EDCA access categories. Higher values are higher
// priority — AC_VO wins a virtual collision against AC_BE.
type AC int

const (
	AC_BK AC = iota // background
	AC_BE           // best effort (the legacy-DCF class)
	AC_VI           // video
	AC_VO           // voice

	// NumACs sizes per-AC tables (queues, counters, EdcaParams).
	NumACs
)

// String names the category the way the standard writes it.
func (ac AC) String() string {
	switch ac {
	case AC_BK:
		return "AC_BK"
	case AC_BE:
		return "AC_BE"
	case AC_VI:
		return "AC_VI"
	case AC_VO:
		return "AC_VO"
	}
	return fmt.Sprintf("AC(%d)", int(ac))
}

// AcParams is one access category's channel-access parameter set as
// netsim consumes it: the AIFS already resolved to microseconds, the
// contention window bounds, the transmit-queue depth, and the TXOP
// limit for that category.
//
// TxopLimitUs bounds the transmit opportunity a winning queue holds:
// once a queue's backoff expires it may run SIFS-separated frame
// exchanges back to back until the next exchange would no longer fit
// inside the limit. 0 means one exchange per channel access — the
// pre-11e rule, which reproduces the single-exchange simulator exactly.
type AcParams struct {
	AifsUs      float64
	CWMin       int
	CWMax       int
	QueueLimit  int
	TxopLimitUs float64
}

// EdcaParams is the per-AC parameter table carried on Config.Edca,
// indexed by AC. A nil table on Config means legacy single-class DCF:
// every flow is coerced into AC_BE and contends with DIFS/CWMin/CWMax
// from Config.Dcf, which reproduces pre-EDCA results exactly.
type EdcaParams [NumACs]AcParams

// DefaultEdca returns the 802.11e default parameter sets, derived from
// the PHY's DCF timing (aCWmin/aCWmax are d.CWMin/d.CWMax, and
// AIFS = SIFS + AIFSN·slot, so AIFSN 2 reproduces legacy DIFS), with
// every category given the same queue depth:
//
//	AC_BK: AIFSN 7, CW aCWmin..aCWmax
//	AC_BE: AIFSN 3, CW aCWmin..aCWmax
//	AC_VI: AIFSN 2, CW (aCWmin+1)/2-1 .. aCWmin
//	AC_VO: AIFSN 2, CW (aCWmin+1)/4-1 .. (aCWmin+1)/2-1
//
// TXOP limits are left at zero — one exchange per channel access — so
// results stay bit-for-bit comparable with the pre-TXOP simulator;
// chain WithDot11eTxop to opt into the standard's default per-AC
// limits.
func DefaultEdca(d mac.DcfConfig, queueLimit int) EdcaParams {
	ac := func(aifsn, cwMin, cwMax int) AcParams {
		return AcParams{AifsUs: d.SIFSUs + float64(aifsn)*d.SlotUs,
			CWMin: cwMin, CWMax: cwMax, QueueLimit: queueLimit}
	}
	return EdcaParams{
		AC_BK: ac(7, d.CWMin, d.CWMax),
		AC_BE: ac(3, d.CWMin, d.CWMax),
		AC_VI: ac(2, (d.CWMin+1)/2-1, d.CWMin),
		AC_VO: ac(2, (d.CWMin+1)/4-1, (d.CWMin+1)/2-1),
	}
}

// WithDot11eTxop returns a copy of the table with the 802.11e default
// TXOP limits applied: voice and video may burst SIFS-separated
// exchanges for 1.504/3.008 ms, the standard's defaults for OFDM PHYs;
// a DSSS/CCK timing (20 us slots) gets the 802.11b column instead,
// 3.264/6.016 ms. Best effort and background stay at one exchange per
// access in both.
func (e EdcaParams) WithDot11eTxop(d mac.DcfConfig) EdcaParams {
	e[AC_BK].TxopLimitUs, e[AC_BE].TxopLimitUs = 0, 0
	e[AC_VI].TxopLimitUs, e[AC_VO].TxopLimitUs = 3008, 1504
	if d.SlotUs >= 20 {
		e[AC_VI].TxopLimitUs, e[AC_VO].TxopLimitUs = 6016, 3264
	}
	return e
}

// legacyEdca fills every category with the plain DCF parameters; with
// all flows coerced into AC_BE this is exactly the single-queue model.
func legacyEdca(cfg Config) EdcaParams {
	one := AcParams{
		AifsUs:     cfg.Dcf.DIFSUs,
		CWMin:      cfg.Dcf.CWMin,
		CWMax:      cfg.Dcf.CWMax,
		QueueLimit: cfg.QueueLimit,
	}
	var out EdcaParams
	for ac := range out {
		out[ac] = one
	}
	return out
}

// validate panics when an AC's parameters cannot drive contention.
func (e EdcaParams) validate() {
	for ac, p := range e {
		name := AC(ac).String()
		if math.IsNaN(p.AifsUs) || math.IsInf(p.AifsUs, 0) || p.AifsUs <= 0 {
			panic(fmt.Sprintf("netsim: Edca[%s].AifsUs must be positive and finite, got %v", name, p.AifsUs))
		}
		if p.CWMin < 0 || p.CWMax < p.CWMin {
			panic(fmt.Sprintf("netsim: Edca[%s] window [%d,%d] is not a valid CW range", name, p.CWMin, p.CWMax))
		}
		if p.QueueLimit <= 0 {
			panic(fmt.Sprintf("netsim: Edca[%s].QueueLimit must be positive, got %d", name, p.QueueLimit))
		}
		if math.IsNaN(p.TxopLimitUs) || math.IsInf(p.TxopLimitUs, 0) || p.TxopLimitUs < 0 {
			panic(fmt.Sprintf("netsim: Edca[%s].TxopLimitUs must not be negative, got %v", name, p.TxopLimitUs))
		}
	}
}
