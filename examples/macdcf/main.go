// Macdcf tours the MAC layer: DCF contention and fairness, the
// high-rate overhead wall that aggregation fixes, rate adaptation, and
// the hidden-terminal problem RTS/CTS addresses.
package main

import (
	"fmt"

	"repro/internal/linkmodel"
	"repro/internal/mac"
	"repro/internal/netsim"
	"repro/internal/rng"
)

func main() {
	src := rng.New(5)

	fmt.Println("1. saturated DCF: contention cost and fairness (54 Mbps, 1500 B)")
	for i, n := range []int{1, 5, 20} {
		res := netsim.DenseGrid(netsim.DefaultConfig(), 1, n, []int{1}, 1, 1500)(int64(i)).Run(2e6)
		var shares []float64
		for _, f := range res.Flows {
			shares = append(shares, f.GoodputMbps)
		}
		fmt.Printf("   %2d stations: total %5.1f Mbps, collisions %4.1f%%, Jain %.3f\n",
			n, res.AggGoodputMbps,
			100*float64(res.Collisions)/float64(res.Attempts), netsim.JainIndex(shares))
	}

	fmt.Println("\n2. the overhead wall (single station, with and without 32-frame A-MPDU)")
	agg := netsim.DefaultAggregation()
	for i, rate := range []float64{54, 300, 600} {
		// A one-entry rate table pins the PHY rate: the top of the
		// OFDM ladder (54 Mbps), run at the sweep rate.
		mode := linkmodel.OfdmModes()[7]
		mode.RateMbps = rate
		plain := netsim.DefaultConfig()
		plain.Modes = []linkmodel.Mode{mode}
		aggregated := plain
		aggregated.Aggregation = &agg
		g1 := netsim.SingleLink(plain, 5, 1500)(int64(i)).Run(5e5).AggGoodputMbps
		g2 := netsim.SingleLink(aggregated, 5, 1500)(int64(i)).Run(5e5).AggGoodputMbps
		fmt.Printf("   PHY %3.0f Mbps: %5.1f plain (%2.0f%%)  %5.1f aggregated (%2.0f%%)\n",
			rate, g1, 100*g1/rate, g2, 100*g2/rate)
	}

	fmt.Println("\n3. ARF rate adaptation across SNR (fading link)")
	modes := linkmodel.OfdmModes()
	for _, snr := range []float64{10, 20, 30} {
		res := mac.RunArf(mac.DefaultArf(), modes, snr, true, 2000, 1500, src.Split())
		fmt.Printf("   %2.0f dB: settled on %-14s goodput %5.1f Mbps, delivery %3.0f%%\n",
			snr, res.FinalMode.Name, res.GoodputMbps,
			100*float64(res.FramesOK)/float64(res.FramesSent))
	}

	fmt.Println("\n4. hidden terminals at 6 Mbps (long vulnerable window)")
	plain := mac.RunHiddenTerminal(hiddenCfg(false), 4e6, src.Split())
	rts := mac.RunHiddenTerminal(hiddenCfg(true), 4e6, src.Split())
	fmt.Printf("   plain:   %4.1f Mbps, collision rate %4.1f%%, %d drops\n",
		plain.GoodputMbps, 100*float64(plain.Collisions)/float64(plain.Attempts), plain.Dropped)
	fmt.Printf("   RTS/CTS: %4.1f Mbps, collision rate %4.1f%%, %d drops\n",
		rts.GoodputMbps, 100*float64(rts.Collisions)/float64(rts.Attempts), rts.Dropped)
}

func hiddenCfg(rts bool) mac.HiddenConfig {
	cfg := mac.DefaultHidden(rts)
	cfg.RateMbps = 6
	return cfg
}
