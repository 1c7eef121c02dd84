package netsim

import (
	"fmt"
	"math"
	"testing"
)

// TestSamplerAirtimeTelescopes pins the delta-column contract: the
// per-window airtime figures are differenced from the same cumulative
// counters the aggregate TxopAirtimeFrac divides, and the final partial
// window is flushed at collect time — so summing a category's airtime
// column over every window must recover its aggregate fraction exactly
// (to float addition order; see sampleFault). It holds on a single
// engine and on a sharded floor, whose shards' series collect merges
// window by window.
func TestSamplerAirtimeTelescopes(t *testing.T) {
	const durationUs = 1.5e5
	// A tick that does not divide the duration, so the final window is a
	// genuine partial flush rather than a regular tick.
	const tickUs = durationUs / 7.3
	cases := []struct {
		name   string
		shards int
		build  func(cfg Config) *Network
	}{
		{"traffic-mix", 1, func(cfg Config) *Network { return TrafficMix(cfg, 3, 2, 1, 2)(1) }},
		{"sharded-floor", 3, func(cfg Config) *Network {
			cfg.Shards = 4
			return LargeFloor(cfg, 36, 2, 6, 1, 6, 11)(3)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SampleIntervalUs = tickUs
			r := tc.build(cfg).Run(durationUs)
			if r.Shards != tc.shards {
				t.Fatalf("ran on %d shards, want %d", r.Shards, tc.shards)
			}
			if d := sampleFault(r); d != "" {
				t.Fatal(d)
			}
			air := 0.0
			for ac := range r.Samples.AcAirtimeUs {
				for _, a := range r.Samples.AcAirtimeUs[ac] {
					air += a
				}
			}
			if air == 0 {
				t.Fatal("no category recorded any airtime — the scenario carried no traffic")
			}
		})
	}
}

// sampleFault describes the first way r's sample series breaks the
// sampler's contract ("" when none): it records windows, the last one
// ends at the run's end, each category's airtime and goodput columns
// integrate to the run's aggregates (to float addition order: 1e-9 of
// the airtime fraction, 1e-6 of the delivered bits), and the busy,
// collision and NAV columns are fractions, with collision under busy.
func sampleFault(r Result) string {
	s := r.Samples
	if s == nil || s.Windows() == 0 {
		return "sampler recorded no windows"
	}
	if got := s.TimeUs[s.Windows()-1]; got != r.DurationUs {
		return fmt.Sprintf("last window ends at %v, want the run end %v", got, r.DurationUs)
	}
	for ac := 0; ac < int(NumACs); ac++ {
		sum := 0.0
		for _, a := range s.AcAirtimeUs[ac] {
			sum += a
		}
		frac := sum / r.DurationUs
		if diff := math.Abs(frac - r.PerAC[ac].TxopAirtimeFrac); diff > 1e-9 {
			return fmt.Sprintf("%s: windows integrate to %v, aggregate TxopAirtimeFrac %v (diff %g)",
				AC(ac), frac, r.PerAC[ac].TxopAirtimeFrac, diff)
		}
		bits, prevEnd := 0.0, 0.0
		for i, g := range s.AcGoodputMbps[ac] {
			bits += g * (s.TimeUs[i] - prevEnd)
			prevEnd = s.TimeUs[i]
		}
		agg := 0.0
		for _, f := range r.Flows {
			if f.AC == AC(ac) {
				agg += f.GoodputMbps * r.DurationUs
			}
		}
		if math.Abs(bits-agg) > 1e-6*math.Max(1, agg) {
			return fmt.Sprintf("%s: goodput windows integrate to %v bit-us, flows say %v", AC(ac), bits, agg)
		}
	}
	for i := 0; i < s.Windows(); i++ {
		if s.BusyFrac[i] < 0 || s.BusyFrac[i] > 1+1e-9 {
			return fmt.Sprintf("window %d: BusyFrac %v outside [0,1]", i, s.BusyFrac[i])
		}
		if s.CollisionFrac[i] < 0 || s.CollisionFrac[i] > s.BusyFrac[i]+1e-9 {
			return fmt.Sprintf("window %d: CollisionFrac %v exceeds BusyFrac %v",
				i, s.CollisionFrac[i], s.BusyFrac[i])
		}
		if s.NavFrac[i] < 0 || s.NavFrac[i] > 1 {
			return fmt.Sprintf("window %d: NavFrac %v outside [0,1]", i, s.NavFrac[i])
		}
	}
	return ""
}

// TestSamplerOffByDefault: without SampleIntervalUs the run carries no
// series and schedules no ticks.
func TestSamplerOffByDefault(t *testing.T) {
	r := SingleLink(DefaultConfig(), 20, 1000)(1).Run(5e4)
	if r.Samples != nil {
		t.Fatalf("Samples = %+v, want nil when SampleIntervalUs is 0", r.Samples)
	}
}
