package channel

import (
	"math"

	"repro/internal/mathx"
)

// PathLossModel is the TGn-style indoor breakpoint model: free-space decay
// (exponent 2) out to the breakpoint distance, exponent 3.5 beyond it.
// This is the propagation law under which the paper's range claims are
// evaluated.
type PathLossModel struct {
	FreqHz      float64 // carrier frequency
	BreakpointM float64 // breakpoint distance in metres (TGn model D: 10 m; B: 5 m)
	ExponentFar float64 // path-loss exponent beyond the breakpoint
}

// Model24GHz returns the model for the 2.4 GHz ISM band (802.11/b/g/n)
// with TGn channel model D parameters.
func Model24GHz() PathLossModel {
	return PathLossModel{FreqHz: 2.4e9, BreakpointM: 10, ExponentFar: 3.5}
}

// freeSpaceDB returns free-space path loss at distance d metres.
func (m PathLossModel) freeSpaceDB(d float64) float64 {
	lambda := 299792458.0 / m.FreqHz
	return 20 * mathx.Log10(4*math.Pi*d/lambda)
}

// LossDB returns the median path loss in dB at distance d (metres). For
// d below 1 m the 1 m loss is returned, keeping link budgets finite.
func (m PathLossModel) LossDB(d float64) float64 { return m.Curve().LossDB(d) }

// LossCurve is a PathLossModel with the breakpoint's free-space loss
// computed once, for callers that evaluate the loss at many distances
// (a gain matrix over every node pair).
type LossCurve struct {
	m      PathLossModel
	bpLoss float64 // m.freeSpaceDB(m.BreakpointM)
}

// Curve returns the model with its breakpoint loss precomputed.
func (m PathLossModel) Curve() LossCurve {
	return LossCurve{m: m, bpLoss: m.freeSpaceDB(m.BreakpointM)}
}

// LossDB returns the model's median path loss in dB at distance d
// (metres); see PathLossModel.LossDB.
func (c LossCurve) LossDB(d float64) float64 {
	if d < 1 {
		d = 1
	}
	if d <= c.m.BreakpointM {
		return c.m.freeSpaceDB(d)
	}
	return c.bpLoss + 10*c.m.ExponentFar*mathx.Log10(d/c.m.BreakpointM)
}

// LinkBudget describes a transmitter-receiver pair.
type LinkBudget struct {
	TxPowerDBm    float64 // transmit power
	TxAntennaGain float64 // dBi
	RxAntennaGain float64 // dBi
	NoiseFigureDB float64 // receiver noise figure
	BandwidthHz   float64 // noise bandwidth
}

// DefaultLinkBudget mirrors a typical 802.11 client: 15 dBm transmit,
// 0 dBi antennas, 7 dB noise figure.
func DefaultLinkBudget(bandwidthHz float64) LinkBudget {
	return LinkBudget{TxPowerDBm: 15, NoiseFigureDB: 7, BandwidthHz: bandwidthHz}
}

// BudgetDBm is the received power at 0 dB of path loss: TxPowerDBm +
// TxAntennaGain + RxAntennaGain, summed in that order. Every received
// power is this figure less a loss.
func (b LinkBudget) BudgetDBm() float64 {
	return b.TxPowerDBm + b.TxAntennaGain + b.RxAntennaGain
}

// NoiseFloorDBm returns the thermal noise floor kTB plus noise figure.
func (b LinkBudget) NoiseFloorDBm() float64 {
	return -174 + 10*math.Log10(b.BandwidthHz) + b.NoiseFigureDB
}

// SNRdBAt returns the received median SNR in dB at distance d under the
// given path-loss model.
func (b LinkBudget) SNRdBAt(m PathLossModel, d float64) float64 {
	rx := b.BudgetDBm() - m.LossDB(d)
	return rx - b.NoiseFloorDBm()
}
