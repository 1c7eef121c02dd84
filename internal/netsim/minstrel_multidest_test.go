package netsim

import "testing"

// TestMinstrelStatePerDestination pins the per-(tx, destination)
// isolation of Minstrel sampling state. An AP serving a 5 m station
// and a 110 m station over the same controller would be poisoned both
// ways: the far link's failures would EWMA-drag the near link off the
// top of the ladder, and the near link's successes would keep probing
// hopeless rates toward the far one. rcFor keys controllers by
// receiver id and every piece of sampling state (success EWMAs, try
// counters, sample schedule) lives on the controller instance, so the
// two links must converge independently.
func TestMinstrelStatePerDestination(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RateControl = "minstrel"
	n := New(cfg, 11)
	b := n.AddAP("AP", 0, 0, 1)
	near := n.AddStation(b, "near", 5, 0)
	far := n.AddStation(b, "far", 110, 0)
	n.Add(FlowSpec{From: b.AP, To: near, AC: AC_BE, Gen: Saturated{PayloadBytes: 1000}})
	n.Add(FlowSpec{From: b.AP, To: far, AC: AC_BE, Gen: Saturated{PayloadBytes: 1000}})
	res := n.Run(400_000)

	cNear, cFar := b.AP.rc[near.id], b.AP.rc[far.id]
	if cNear == nil || cFar == nil {
		t.Fatalf("missing per-destination controllers: near=%v far=%v", cNear, cFar)
	}
	if cNear == cFar {
		t.Fatal("both destinations share one Minstrel controller; sampling state must be per (tx, dest)")
	}
	// The near link (~61 dB SNR) must sit far above the far link
	// (~12 dB SNR) on the ladder — cross-poisoning would pull the two
	// mode indices together.
	if cNear.ModeIndex() <= cFar.ModeIndex() {
		t.Errorf("near link mode %d not above far link mode %d; far-link failures leaked into the near link's ladder",
			cNear.ModeIndex(), cFar.ModeIndex())
	}
	// Both flows deliver the same frame count (the DCF performance
	// anomaly — the slow link just burns more airtime), so goodput
	// can't tell the links apart; the attempt histogram can. With
	// isolated controllers each link parks on its own equilibrium
	// rung, so the two dominant modes must sit well apart on the
	// ladder with sustained traffic on both.
	best, second := -1, -1
	for i, m := range n.cfg.Modes {
		if best < 0 || res.ModeAttempts[m.Name] > res.ModeAttempts[n.cfg.Modes[best].Name] {
			best, second = i, best
		} else if second < 0 || res.ModeAttempts[m.Name] > res.ModeAttempts[n.cfg.Modes[second].Name] {
			second = i
		}
	}
	lo, hi := best, second
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi-lo < 3 {
		t.Errorf("dominant modes %q and %q only %d rungs apart; the two links should settle on distant equilibria: %v",
			n.cfg.Modes[lo].Name, n.cfg.Modes[hi].Name, hi-lo, res.ModeAttempts)
	}
	for _, i := range []int{lo, hi} {
		if a := res.ModeAttempts[n.cfg.Modes[i].Name]; a < 100 {
			t.Errorf("equilibrium mode %q saw only %d attempts: %v", n.cfg.Modes[i].Name, a, res.ModeAttempts)
		}
	}
}
