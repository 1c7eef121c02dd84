// Macdcf tours the MAC layer: DCF contention and fairness, the
// high-rate overhead wall that aggregation fixes, rate adaptation, and
// the hidden-terminal problem RTS/CTS addresses.
package main

import (
	"fmt"

	"repro/internal/linkmodel"
	"repro/internal/netsim"
)

func main() {
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

	fmt.Println("\n3. per-frame ARF across distance (one saturated station)")
	arf := netsim.DefaultConfig()
	arf.RateControl = "arf"
	for i, distM := range []float64{10, 90, 150} {
		res := netsim.SingleLink(arf, distM, 1500)(int64(i)).Run(1e6)
		top, topCount := "", 0
		for _, m := range arf.Modes { // rate-table order breaks ties
			if c := res.ModeAttempts[m.Name]; c > topCount {
				top, topCount = m.Name, c
			}
		}
		fmt.Printf("   %3.0f m: mostly %-14s goodput %5.1f Mbps, delivery %3.0f%%\n",
			distM, top, res.AggGoodputMbps, 100*float64(res.Delivered)/float64(res.Attempts))
	}

	fmt.Println("\n4. hidden terminals at 6 Mbps (long vulnerable window)")
	hidden := netsim.DefaultConfig()
	hidden.Modes = linkmodel.OfdmModes()[:1] // pin OFDM 6 Mbps
	rtsCts := hidden
	rtsCts.RtsThresholdBytes = 1 // RTS/CTS before every data frame
	for _, row := range []struct {
		name string
		cfg  netsim.Config
	}{{"plain:  ", hidden}, {"RTS/CTS:", rtsCts}} {
		res := netsim.HiddenPair(row.cfg, 300, 1500)(1).Run(4e6)
		fmt.Printf("   %s %4.1f Mbps, collision rate %4.1f%%, %d drops\n",
			row.name, res.AggGoodputMbps, 100*float64(res.Collisions)/float64(res.Attempts), res.RetryDrops)
	}
}
