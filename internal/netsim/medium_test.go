package netsim

import "testing"

// Regression for the finish-time interference asymmetry: interference
// used to be subtracted at the rx power computed WHEN THE FRAME ENDED,
// so an endpoint that roamed mid-frame unwound a different gain than
// was added at start, leaving residue in (or over-draining) the
// victim's running interference sum. finish must subtract exactly the
// snapshotted milliwatts.
func TestFinishUnwindsSnapshotAfterMidFrameMove(t *testing.T) {
	cfg := DefaultConfig()
	// Mid-frame gain changes only happen when roamScan runs; that is
	// also what arms the snapshot path (a static floor skips the
	// bookkeeping and recomputes from the unchanged gain matrix).
	cfg.RoamIntervalUs = 100000
	n := New(cfg, 1)
	b1 := n.AddAP("AP1", 0, 0, 1)
	b2 := n.AddAP("AP2", 200, 0, 1)
	s1 := n.AddStation(b1, "s1", 10, 0)
	s2 := n.AddStation(b2, "s2", 210, 0)
	n.build()
	m := n.media[0]

	// Two concurrent frames on far-apart links: s1→AP1 and s2→AP2.
	tr1 := &transmission{kind: FrameData, tx: s1, rx: b1.AP, mode: n.robustMode()}
	tr2 := &transmission{kind: FrameData, tx: s2, rx: b2.AP, mode: n.robustMode()}
	m.start(tr1)
	m.start(tr2)
	added := n.rxPowerMw(s1, b2.AP)
	if tr2.curIntfMw != added || tr2.curIntfMw <= 0 {
		t.Fatalf("tr2 interference %v mw, want the s1→AP2 crossing %v", tr2.curIntfMw, added)
	}

	// s1 walks far away while its frame is still on the air: the gain
	// matrix refreshes, so a finish-time recomputation would subtract a
	// much smaller figure than was added.
	s1.X = 2000
	n.gains.refresh([]*Node{s1})
	if m.grid != nil {
		m.grid.update(s1)
	}
	m.finish(tr1)
	if tr2.curIntfMw != 0 {
		t.Fatalf("after tr1 finished, tr2 still carries %v mw of residue (snapshot not used)", tr2.curIntfMw)
	}
	m.finish(tr2)
}

// A victim that finishes before its interferer must not be touched by
// the interferer's later unwind (its SINR verdict is already recorded,
// and its slice of the active list is gone).
func TestFinishSkipsAlreadyFinishedVictims(t *testing.T) {
	cfg := DefaultConfig()
	n := New(cfg, 2)
	b1 := n.AddAP("AP1", 0, 0, 1)
	b2 := n.AddAP("AP2", 150, 0, 1)
	s1 := n.AddStation(b1, "s1", 10, 0)
	s2 := n.AddStation(b2, "s2", 160, 0)
	n.build()
	m := n.media[0]

	tr1 := &transmission{kind: FrameData, tx: s1, rx: b1.AP, mode: n.robustMode()}
	tr2 := &transmission{kind: FrameData, tx: s2, rx: b2.AP, mode: n.robustMode()}
	m.start(tr1)
	m.start(tr2)
	m.finish(tr2) // victim ends first
	residue := tr2.curIntfMw
	m.finish(tr1)
	if tr2.curIntfMw != residue {
		t.Fatalf("finished frame's interference sum moved from %v to %v after a late unwind", residue, tr2.curIntfMw)
	}
	if len(m.active) != 0 {
		t.Fatalf("%d transmissions left on the air", len(m.active))
	}
}
