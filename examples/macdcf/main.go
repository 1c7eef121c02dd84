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
	for _, n := range []int{1, 5, 20} {
		stas := make([]*mac.Station, n)
		for i := range stas {
			stas[i] = &mac.Station{Name: fmt.Sprintf("s%d", i), RateMbps: 54}
		}
		res := mac.RunDcf(mac.Dot11agDcf(), stas, 1500, 2e6, src.Split())
		var shares []float64
		for _, s := range res.PerStation {
			shares = append(shares, s.GoodputMbps)
		}
		fmt.Printf("   %2d stations: total %5.1f Mbps, collisions %4.1f%%, Jain %.3f\n",
			n, res.TotalGoodputMbps,
			100*float64(res.Collisions)/float64(res.TxEvents), netsim.JainIndex(shares))
	}

	fmt.Println("\n2. the overhead wall (single station, with and without 32-frame A-MPDU)")
	for _, rate := range []float64{54, 300, 600} {
		plain := []*mac.Station{{Name: "a", RateMbps: rate}}
		agg := []*mac.Station{{Name: "a", RateMbps: rate, Aggregation: 32}}
		g1 := mac.RunDcf(mac.Dot11agDcf(), plain, 1500, 5e5, src.Split()).TotalGoodputMbps
		g2 := mac.RunDcf(mac.Dot11agDcf(), agg, 1500, 5e5, src.Split()).TotalGoodputMbps
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
