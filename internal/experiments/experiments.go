// Package experiments contains one runner per reproduced exhibit E1–E31
// (there is no E28 exhibit; E28 is a benchmark only). The paper (a
// survey) prints no numbered tables or figures; each runner regenerates
// one of its quantitative claims as a table, with the claim quoted in
// the table note.
package experiments

import (
	"fmt"

	"repro/internal/report"
)

// Config controls experiment fidelity.
type Config struct {
	Seed         int64
	Frames       int // frames per Monte-Carlo PER point
	PayloadBytes int
}

// Default returns full-fidelity settings.
func Default() Config {
	return Config{Seed: 1, Frames: 120, PayloadBytes: 400}
}

// Quick returns reduced settings for tests and benchmarks.
func Quick() Config {
	return Config{Seed: 1, Frames: 25, PayloadBytes: 150}
}

// Runner produces one exhibit.
type Runner struct {
	ID    string
	Title string
	Run   func(Config) []report.Table
}

// All lists every experiment in order.
func All() []Runner {
	return []Runner{
		{"E1", "Standards evolution: rate and spectral efficiency", E01Evolution},
		{"E2", "DSSS processing gain under narrowband interference", E02ProcessingGain},
		{"E3", "PER vs SNR waterfall per PHY generation", E03Waterfall},
		{"E4", "MIMO capacity and 802.11n rate scaling", E04MimoCapacity},
		{"E5", "Range extension from MIMO diversity", E05Range},
		{"E6", "LDPC vs convolutional coding gain", E06Ldpc},
		{"E7", "Closed-loop SVD beamforming gain", E07Beamforming},
		{"E8", "Mesh coverage scaling", E08MeshCoverage},
		{"E9", "Mesh routing: multi-hop vs single-hop", E09MeshRouting},
		{"E10", "Cooperative diversity outage", E10Coop},
		{"E11", "PAPR and PA efficiency by modulation era", E11Papr},
		{"E12", "MIMO power and RX-chain switching", E12ChainSwitch},
		{"E13", "Beamforming transmit power control", E13Tpc},
		{"E14", "PSM energy/latency trade-off", E14Psm},
		{"E15", "Aggregation ablation: MAC efficiency vs PHY rate (extension)", E15Aggregation},
		{"E16", "Burst acquisition robustness (extension)", E16Acquisition},
		{"E17", "Hidden terminals and RTS/CTS (extension)", E17HiddenTerminal},
		{"E18", "Spectral signature: CCK keeps the DSSS mask", E18Signature},
		{"E19", "DCF performance anomaly (extension)", E19Anomaly},
		{"E20", "Energy per delivered bit by generation", E20EnergyPerBit},
		{"E21", "FHSS coexistence: fair and equal access", E21Coexistence},
		{"E22", "Dense multi-BSS capacity: co-channel vs channel reuse (netsim)", E22DenseBSS},
		{"E23", "Traffic-mix delay and fairness under contention (netsim)", E23TrafficMix},
		{"E24", "Hidden-terminal RTS/CTS + NAV rescue and per-frame ARF (netsim)", E24RtsCtsHidden},
		{"E25", "EDCA access categories: voice tail latency vs legacy DCF (netsim)", E25EdcaQos},
		{"E26", "A-MPDU aggregation restores MAC efficiency at high PHY rate (netsim)", E26AmpduEfficiency},
		{"E27", "Large-floor density sweep: 25-144 BSSs with spatial reuse (netsim)", E27LargeFloorScale},
		{"E29", "Closed-loop transport + app QoE vs user density (netsim)", E29ClosedLoopQoE},
		{"E30", "HT rate adaptation and 40 MHz channel bonding (netsim)", E30HtRateAdaptation},
		{"E31", "OBSS-PD spatial reuse: capacity vs per-BSS fairness (netsim)", E31SpatialReuse},
	}
}

// ByID finds a runner.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown id %q", id)
}
