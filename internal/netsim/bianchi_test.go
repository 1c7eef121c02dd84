package netsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/linkmodel"
	"repro/internal/mac"
)

// bianchiGoodputMbps is Bianchi's saturation throughput (IEEE JSAC 2000,
// "Performance analysis of the IEEE 802.11 distributed coordination
// function") for n stations that always have a frame queued, in the
// finite-retry form the simulator runs: backoff stage i = 0..RetryLimit
// draws uniformly from a window of Wᵢ = min((CWMin+1)·2ⁱ, CWMax+1)
// slots, and a frame is dropped after its last stage. A station in
// stage i reaches it with probability pⁱ, so with the normalisation
// Σᵢ pⁱ(Wᵢ+1)/2 of the backoff chain the attempt probability per slot is
//
//	τ(p) = 2·Σᵢ pⁱ / Σᵢ pⁱ(Wᵢ+1),
//
// closed by the collision probability p = 1 − (1−τ)ⁿ⁻¹. Successes and
// collisions both hold the medium for one exchange plus DIFS, because
// a collided sender waits out its own ACK window. Throughput is the
// payload of a success per mean slot:
//
//	S = Ps·Ptr·8·payload / ((1−Ptr)·σ + Ptr·(exchange + DIFS)).
func bianchiGoodputMbps(n int, d mac.DcfConfig, exchangeUs float64, payloadBytes int) float64 {
	tau := func(p float64) float64 {
		num, den, pi := 0.0, 0.0, 1.0
		for i := 0; i <= d.RetryLimit; i++ {
			w := math.Min(float64(d.CWMin+1)*math.Pow(2, float64(i)), float64(d.CWMax+1))
			num += pi
			den += pi * (w + 1)
			pi *= p
		}
		return 2 * num / den
	}
	// p − (1 − (1−τ(p))ⁿ⁻¹) rises monotonically in p, from ≤ 0 at 0 to
	// ≥ 0 at 1, so bisection finds the one root.
	lo, hi := 0.0, 1.0
	for range 100 {
		p := (lo + hi) / 2
		if p < 1-math.Pow(1-tau(p), float64(n-1)) {
			lo = p
		} else {
			hi = p
		}
	}
	t := tau((lo + hi) / 2)
	ptr := 1 - math.Pow(1-t, float64(n))
	psPtr := float64(n) * t * math.Pow(1-t, float64(n-1))
	slot := (1-ptr)*d.SlotUs + ptr*(exchangeUs+d.DIFSUs)
	return psPtr * float64(8*payloadBytes) / slot
}

// bianchiRing is one saturated BSS: n uplink stations on a ring of one
// radius around the AP. Equal received power at the AP means no
// collision is ever captured, every pair of stations hears the other
// (the ring's diameter is well inside carrier-sense range), and at
// 5 m the SNR leaves no room for noise loss — the premises of
// Bianchi's model.
func bianchiRing(cfg Config, n, payloadBytes int) func(seed int64) *Network {
	const radiusM = 5
	return func(seed int64) *Network {
		nw := New(cfg, seed)
		b := nw.AddAP("AP", 0, 0, 1)
		for s := range n {
			ang := 2 * math.Pi * float64(s) / float64(n)
			st := nw.AddStation(b, fmt.Sprintf("sta%d", s), radiusM*math.Cos(ang), radiusM*math.Sin(ang))
			nw.Add(FlowSpec{From: st, AC: AC_BE, Gen: Saturated{PayloadBytes: payloadBytes}})
		}
		return nw
	}
}

// TestBianchiSaturationAnchor holds the simulator's DCF — carrier
// sense, binary exponential backoff with freezing, collisions — to the
// analytic saturation model, in both eras the paper's MAC story spans,
// and scores the same runs for fairness as Sharma's analysis of the
// 802.11b MAC does: aggregate goodput within 3% of Bianchi's fixed
// point, and Jain's index over per-station goodput (averaged across
// seeds) at least 0.95. Each cell is 4 seeds of 5 s.
func TestBianchiSaturationAnchor(t *testing.T) {
	const (
		payload = 1500
		seeds   = 4
		durUs   = 5e6
		tol     = 0.03
	)
	pick := func(modes []linkmodel.Mode, name string) linkmodel.Mode {
		for _, m := range modes {
			if m.Name == name {
				return m
			}
		}
		t.Fatalf("no mode %q", name)
		return linkmodel.Mode{}
	}
	eras := []struct {
		name string
		dcf  mac.DcfConfig
		mode linkmodel.Mode
	}{
		{"11a/g", mac.Dot11agDcf(), pick(linkmodel.OfdmModes(), "OFDM 54 Mbps")},
		{"11b", mac.Dot11bDcf(), pick(linkmodel.CckModes(), "CCK 11 Mbps")},
	}
	for _, era := range eras {
		cfg := DefaultConfig()
		cfg.Dcf = era.dcf
		cfg.Modes = []linkmodel.Mode{era.mode}
		exchangeUs := era.dcf.PlcpUs + 8*payload/era.mode.RateMbps + era.dcf.SIFSUs + era.dcf.AckUs
		for _, n := range []int{1, 2, 5, 10, 20, 50} {
			jobs := SeedSweep("bianchi", bianchiRing(cfg, n, payload), durUs, int64(100*n), seeds)
			results := ScenarioRunner{Workers: 2}.RunAll(jobs)
			shares := make([]float64, n)
			for _, r := range results {
				if r.NoiseLosses > 0 {
					t.Fatalf("%s n=%d: %d noise losses; the ring must be noise-free", era.name, n, r.NoiseLosses)
				}
				for i, f := range r.Flows {
					shares[i] += f.GoodputMbps / seeds
				}
			}
			got := MeanAggGoodput(results)
			want := bianchiGoodputMbps(n, era.dcf, exchangeUs, payload)
			dev := got/want - 1
			jain := JainIndex(shares)
			t.Logf("%-5s n=%2d: netsim %6.3f Mbps, Bianchi %6.3f Mbps (%+.2f%%), Jain %.3f",
				era.name, n, got, want, 100*dev, jain)
			if math.Abs(dev) > tol {
				t.Errorf("%s n=%d: saturation goodput %.3f Mbps is %+.2f%% off Bianchi's %.3f Mbps (want within %.0f%%)",
					era.name, n, got, 100*dev, want, 100*tol)
			}
			if jain < 0.95 {
				t.Errorf("%s n=%d: Jain index %.3f over per-station goodput, want at least 0.95", era.name, n, jain)
			}
		}
	}
}
