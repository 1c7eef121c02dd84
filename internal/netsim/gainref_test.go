package netsim

import (
	"fmt"
	"math"
	"testing"
)

// refGainMw is the received power of a pair as the gain rows held it
// before the kernel ports and the row passes: one scalar formula on
// the math package — the distance by math.Hypot, the TGn breakpoint
// loss by math.Log10 (channel.LossCurve's steps, in its order), the
// shadowing draw added to the loss, and the dBm figure converted by
// math.Pow(10, ·/10).
func refGainMw(cfg Config, a, o *Node, shadowDB float64) float64 {
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
	loss += shadowDB
	b := cfg.Budget
	return math.Pow(10, (b.TxPowerDBm+b.TxAntennaGain+b.RxAntennaGain-loss)/10)
}

// TestGainCellsMatchReference holds every gain cell the fill and the
// roam-tick refresh write to refGainMw bit for bit. The two large
// static floors are built whole: every same-domain cell of the
// 4,100-node one-channel E27 floor and of the 8-domain city floor
// (shadowing off, so each parked draw is 0). The walker floor (272
// nodes, 4 dB shadowing, mobile) is checked after its build and after
// every roam tick, with every skipped cell poisoned with NaN
// (Config.poisonSkippedGains): a cell with a node that moved since it
// was written is either rewritten at the node's new position or NaN,
// so every cell that is not NaN must equal the reference at the
// current positions and the retained draws.
func TestGainCellsMatchReference(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CSThresholdDBm = -62
	for _, fl := range []struct {
		name    string
		build   func(seed int64) *Network
		domains int
	}{
		{"e27", LargeFloor(cfg, 100, 40, 10, 1), 1},
		{"city", LargeFloor(cfg, 1024, 3, 32, 1, 6, 11, 36, 40, 44, 48, 52), 8},
	} {
		t.Run(fl.name, func(t *testing.T) {
			n := fl.build(1)
			n.build()
			if got := len(n.gainBounds) - 1; got != fl.domains {
				t.Fatalf("%d gain domains, want %d", got, fl.domains)
			}
			cells := 0
			for d := 0; d+1 < len(n.gainBounds); d++ {
				dom := n.gainMembers[n.gainBounds[d]:n.gainBounds[d+1]]
				for _, a := range dom {
					for _, o := range dom {
						if o == a {
							continue
						}
						if got, want := a.gain[o.gi], refGainMw(n.cfg, a, o, 0); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("gain %d→%d holds %v (%#x), the reference gives %v (%#x)",
								a.id, o.id, got, math.Float64bits(got), want, math.Float64bits(want))
						}
						cells++
					}
				}
			}
			t.Logf("%d nodes, %d cells", len(n.nodes), cells)
		})
	}
	t.Run("walker-floor-272", func(t *testing.T) {
		n := walkerFloor(1)
		n.cfg.poisonSkippedGains = true
		n.Prepare()
		check := func(when string) (live int) {
			for _, a := range n.nodes {
				for _, o := range n.nodes {
					got := a.gain[o.gi]
					if o == a || math.IsNaN(got) {
						continue
					}
					if want := refGainMw(n.cfg, a, o, n.shadowDB[a.id][o.id]); math.Float64bits(got) != math.Float64bits(want) {
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
