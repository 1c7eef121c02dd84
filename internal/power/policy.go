package power

// This file models the mitigation strategies the paper proposes: sniffing
// with one receive chain and waking the rest only when a packet arrives,
// and closed-loop transmit power control via beamforming.

// TrafficPattern summarizes a receive workload for duty-cycle energy
// accounting.
type TrafficPattern struct {
	DurationS float64 // observation window
	RxBusyS   float64 // time actually spent receiving frames
	RxEventsN int     // number of distinct reception events
}

// ChainPolicy is a receive-chain management strategy.
type ChainPolicy int

const (
	// AlwaysOn keeps every receive chain powered whenever awake.
	AlwaysOn ChainPolicy = iota
	// SniffThenWake listens with a single chain and powers the remaining
	// chains only for the duration of each reception (plus a wake-up
	// cost), the scheme the paper suggests for MIMO power mitigation.
	SniffThenWake
)

// chainWakeCostS is the energy-equivalent time to power up the extra
// chains per reception event (PLL settle and AGC retrain, tens of
// microseconds).
const chainWakeCostS = 50e-6

// RxEnergyJ returns the energy spent by the receiver over the traffic
// pattern under the given policy.
func (d DeviceProfile) RxEnergyJ(cfg RadioConfig, tr TrafficPattern, policy ChainPolicy) float64 {
	idle := tr.DurationS - tr.RxBusyS
	if idle < 0 {
		idle = 0
	}
	switch policy {
	case AlwaysOn:
		return idle*d.ListenPowerW(cfg.RxChains) + tr.RxBusyS*d.RxPowerW(cfg)
	case SniffThenWake:
		wake := float64(tr.RxEventsN) * chainWakeCostS * d.RxPowerW(cfg)
		return idle*d.ListenPowerW(1) + tr.RxBusyS*d.RxPowerW(cfg) + wake
	}
	panic("power: unknown chain policy")
}
