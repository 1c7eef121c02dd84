package netsim

import (
	"fmt"
	"math"
	"testing"
)

// refGainMw is the received power of a pair as the gain rows held it
// before the kernel ports and the row passes: one scalar formula on
// the math package — the distance by math.Hypot, the TGn breakpoint
// loss by math.Log10 (channel.LossCurve's steps, in its order), and the
// dBm figure converted by math.Pow(10, ·/10).
func refGainMw(cfg Config, a, o *Node) float64 {
	pl := cfg.PathLoss
	lambda := 299792458.0 / pl.FreqHz
	d := math.Hypot(a.X-o.X, a.Y-o.Y)
	if d < 1 {
		d = 1
	}
	var loss float64
	if d <= pl.BreakpointM {
		loss = 20 * math.Log10(4*math.Pi*d/lambda)
	} else {
		bp := 20 * math.Log10(4*math.Pi*pl.BreakpointM/lambda)
		loss = bp + 10*pl.ExponentFar*math.Log10(d/pl.BreakpointM)
	}
	b := cfg.Budget
	return math.Pow(10, (b.TxPowerDBm+b.TxAntennaGain+b.RxAntennaGain-loss)/10)
}

// TestGainCellsMatchReference holds every gain cell the fill and the
// roam-tick refresh write to refGainMw bit for bit. The three large
// static floors are built whole: every same-domain cell of the
// 4,100-node one-channel E27 floor (−62 dBm carrier sense), of the
// same floor at −82 dBm with OBSS-PD at −72 dBm (perfbench's
// floor-obss) and of the 8-domain city floor. Each cell the fill
// computes must match; each pair it skips must be one the static rule
// lets it skip (skipFault), and the pairs it computed must number its
// fillPairs, which this test pins per floor. The
// walker floor (272 nodes, mobile) is checked after its build and after
// every roam tick, with every skipped cell poisoned with NaN
// (the poisonSkippedGains oracle): a cell with a node that moved since it
// was written is either rewritten at the node's new position or NaN,
// so every cell that is not NaN must equal the reference at the
// current positions.
func TestGainCellsMatchReference(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CSThresholdDBm = -62
	obss := DefaultConfig()
	obss.ObssPdThresholdDBm = -72
	for _, fl := range []struct {
		name    string
		build   func(seed int64) *Network
		domains int
		pairs   int
	}{
		{"e27", LargeFloor(cfg, 100, 40, 10, 1), 1, 782_723},
		{"floor-obss", LargeFloor(obss, 100, 40, 10, 1), 1, 3_837_252},
		{"city", LargeFloor(cfg, 1024, 3, 32, 1, 6, 11, 36, 40, 44, 48, 52), 8, 461_312},
	} {
		t.Run(fl.name, func(t *testing.T) {
			n := fl.build(1)
			n.build()
			if got := n.gains.domains(); got != fl.domains {
				t.Fatalf("%d gain domains, want %d", got, fl.domains)
			}
			rcv := frameReceivers(n)
			cells, computed := 0, 0
			for d := range n.gains.domains() {
				dom := n.gains.domain(d)
				for _, a := range dom {
					for _, o := range dom {
						if o == a {
							continue
						}
						cells++
						got, want := a.gain[o.gi], refGainMw(n.cfg, a, o)
						if math.Float64bits(got) == math.Float64bits(want) {
							computed++
						} else if f := skipFault(n, rcv, a, o, want); f != "" {
							t.Fatalf("gain %d→%d holds %v (%#x), the reference gives %v (%#x): %s",
								a.id, o.id, got, math.Float64bits(got), want, math.Float64bits(want), f)
						}
					}
				}
			}
			if computed != 2*n.gains.fillPairs {
				t.Fatalf("%d cells hold the reference, want both cells of the %d pairs the fill counts", computed, n.gains.fillPairs)
			}
			if n.gains.fillPairs != fl.pairs {
				t.Errorf("the fill computed %d pairs, want %d", n.gains.fillPairs, fl.pairs)
			}
			t.Logf("%d nodes, %d cells, %d pairs computed (%.1f%% of %d)", len(n.nodes), cells,
				n.gains.fillPairs, 100*float64(2*n.gains.fillPairs)/float64(cells), cells/2)
		})
	}
	t.Run("walker-floor-272", func(t *testing.T) {
		n := withOracles(walkerFloor(1), oracles{poisonSkippedGains: true})
		n.Prepare()
		check := func(when string) (live int) {
			for _, a := range n.nodes {
				for _, o := range n.nodes {
					got := a.gain[o.gi]
					if o == a || math.IsNaN(got) {
						continue
					}
					if want := refGainMw(n.cfg, a, o); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: gain %d→%d holds %v (%#x), the reference gives %v (%#x)",
							when, a.id, o.id, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					live++
				}
			}
			return live
		}
		nn := len(n.nodes)
		if live := check("after build"); live != nn*(nn-1) {
			t.Fatalf("after build: %d cells hold a gain, want all %d", live, nn*(nn-1))
		}
		eng := &n.shards[0].eng
		ticks, minLive := 0, nn*nn
		var observe func()
		observe = func() {
			ticks++
			minLive = min(minLive, check(fmt.Sprintf("after the tick at t=%v", eng.Now())))
			eng.Schedule(n.cfg.RoamIntervalUs, observe)
		}
		eng.Schedule(n.cfg.RoamIntervalUs, observe)
		res := n.Run(1e6)
		if ticks < 9 || res.GainRefreshPairs == 0 {
			t.Fatalf("%d ticks observed, %d pairs refreshed; want the run's ticks and refreshed pairs", ticks, res.GainRefreshPairs)
		}
		if minLive == nn*(nn-1) {
			t.Fatal("no tick left a skipped cell poisoned: the check cannot tell a rewritten cell from a skipped one")
		}
		t.Logf("%d ticks, %d pairs refreshed, at least %d of %d cells live after each", ticks, res.GainRefreshPairs, minLive, nn*(nn-1))
	})
}
