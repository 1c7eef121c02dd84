package netsim

import (
	"fmt"
	"testing"
)

// Property test for the grid index: whatever the node layout and
// however nodes move, a candidate query must return a SUPERSET of the
// nodes the brute-force scan would accept — dropping one sensing node
// breaks carrier sense silently. Shadowing is on, so the test also
// exercises the radius padding for lucky per-pair draws, and candidates
// must come back in membership order (the equivalence suite's bit-for-
// bit guarantee rests on it). Carrier-sense candidates cover the
// csTracked subset (idle stations carry no carrier-sense state — see
// Node.joinCS); NAV candidates must cover every decoder, tracked or
// not.

// buildRandomFloor places nNodes uniformly on a side x side floor, all
// on one channel, with shadowing enabled. Every third node is put under
// carrier-sense tracking, mimicking a floor where a fraction of the
// associated stations hold traffic. Mobility is on, so the build keeps
// the shadowing matrix refreshGains needs to teleport nodes.
func buildRandomFloor(t *testing.T, seed int64, nNodes int, sideM float64) *Network {
	t.Helper()
	cfg := DefaultConfig()
	cfg.PathLoss.ShadowDB = 6
	cfg.RoamIntervalUs = 100000
	n := New(cfg, seed)
	b := n.AddAP("AP0", 0, 0, 1)
	for i := 1; i < nNodes; i++ {
		n.AddStation(b, fmt.Sprintf("sta%d", i),
			n.Src().Float64()*sideM, n.Src().Float64()*sideM)
	}
	n.build()
	for i, nd := range n.nodes {
		if i%3 == 0 {
			nd.joinCS()
		}
	}
	return n
}

// assertSuperset checks, for every node as a probe, that the
// carrier-sense candidates cover every TRACKED node above the
// energy-detect threshold and the NAV candidates cover every node above
// robust-mode decode SNR, both in membership order.
func assertSuperset(t *testing.T, n *Network, m *medium) {
	t.Helper()
	need := n.robustMode().SnrReqDB
	for _, tx := range m.nodes {
		for _, q := range []struct {
			kind   string
			get    func() ([]*Node, bool)
			passes func(nd *Node) bool
		}{
			{"cs", func() ([]*Node, bool) { return m.csCandidates(tx), false }, func(nd *Node) bool {
				return nd.csTracked && n.rxPowerDBm(tx, nd) >= n.cfg.CSThresholdDBm
			}},
			{"nav", func() ([]*Node, bool) { return m.navCandidates(tx) }, func(nd *Node) bool {
				return n.linkSNRdB(tx, nd) >= need
			}},
		} {
			cands, pooled := q.get()
			seen := make(map[*Node]bool, len(cands))
			lastOrd := -1
			for _, c := range cands {
				if c.ord <= lastOrd {
					t.Fatalf("%s candidates of %s not in membership order", q.kind, tx.Name)
				}
				lastOrd = c.ord
				seen[c] = true
			}
			for _, nd := range m.nodes {
				if nd == tx || !q.passes(nd) {
					continue
				}
				if !seen[nd] {
					t.Fatalf("%s query at %s dropped in-range node %s (dist %.1f m)",
						q.kind, tx.Name, nd.Name, dist(tx, nd))
				}
			}
			if pooled {
				m.putBuf(cands)
			}
		}
	}
}

func TestGridCandidatesSupersetOfInRange(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		n := buildRandomFloor(t, seed, 90, 400)
		m := n.media[0]
		if m.grid == nil {
			t.Fatal("spatial index not built")
		}
		assertSuperset(t, n, m)

		// Random roams plus tracking churn: teleport nodes around (and
		// beyond) the floor the way roamScan does, and flip nodes in and
		// out of carrier-sense tracking, re-checking the superset
		// property after the dust settles.
		for step := 0; step < 60; step++ {
			nd := m.nodes[n.Src().Intn(len(m.nodes))]
			nd.X = (n.Src().Float64() - 0.25) * 600
			nd.Y = (n.Src().Float64() - 0.25) * 600
			n.refreshGains([]*Node{nd})
			m.grid.update(nd)
			flip := m.nodes[n.Src().Intn(len(m.nodes))]
			if flip.csTracked {
				flip.maybeLeaveCS()
			} else {
				flip.joinCS()
			}
		}
		assertSuperset(t, n, m)
	}
}

// TestGridTracksMediumMigration pins the reassociation path: a station
// roaming to a BSS on another channel must leave the old medium's grid
// and appear in the new one, and both grids must stay query-consistent.
func TestGridTracksMediumMigration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RoamIntervalUs = 100000 // the walker moves (refreshGains)
	n := New(cfg, 3)
	b1 := n.AddAP("AP1", 0, 0, 1)
	b2 := n.AddAP("AP2", 40, 0, 6)
	st := n.AddStation(b1, "walker", 5, 0)
	n.build()
	st.joinCS()
	m1, m2 := n.media[0], n.media[1]

	inGrid := func(m *medium, nd *Node) bool {
		for _, c := range m.csCandidates(nd) {
			if c == nd {
				return true
			}
		}
		return false
	}
	// The small-membership cutover would serve csCandidates from
	// m.nodes; force the grid path so the test sees the index itself.
	if inGrid(m1, st) != true {
		t.Fatal("walker missing from its home medium")
	}
	for _, c := range []struct {
		m  *medium
		nd *Node
	}{{m1, st}} {
		cands := c.m.grid.hood(c.nd)
		found := false
		for _, x := range cands {
			if x == c.nd {
				found = true
			}
		}
		if !found {
			t.Fatal("walker not filed in its home grid neighborhood")
		}
	}
	st.X = 38
	n.refreshGains([]*Node{st})
	m1.grid.update(st)
	st.reassociate(b2)
	if st.med != m2 {
		t.Fatalf("walker on medium %d, want channel 6", st.med.channel)
	}
	hood2 := m2.grid.hood(st)
	found := false
	for _, x := range hood2 {
		if x == st {
			found = true
		}
	}
	if !found {
		t.Fatal("grid tracking did not follow the channel switch")
	}
	if len(m1.grid.hood(b1.AP)) != 0 {
		// b1.AP is untracked; the walker left — no tracked nodes remain.
		t.Fatal("old medium's tracked neighborhood still populated after the roam")
	}
	assertSuperset(t, n, m2)
}
