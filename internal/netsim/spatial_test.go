package netsim

import (
	"fmt"
	"slices"
	"strings"
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
// the shadowing matrix a gain refresh needs to teleport nodes.
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

// hoodNodes resolves candidates (gain indices) — a hood, a NAV query,
// a cell's or the medium's membership — to the Nodes they name through
// the medium's member slice, the way medium.start does.
func hoodNodes(m *medium, cands []candidate) []*Node {
	out := make([]*Node, len(cands))
	for i, c := range cands {
		out[i] = m.members[c.gi]
	}
	return out
}

// assertSuperset checks, for every node as a probe, that the
// carrier-sense candidates cover every TRACKED node above the
// energy-detect threshold and the NAV candidates cover every node above
// robust-mode decode SNR, both in membership order.
func assertSuperset(t *testing.T, n *Network, m *medium) {
	t.Helper()
	need := n.robustMode().SnrReqDB
	members := hoodNodes(m, m.entries)
	for _, tx := range members {
		for _, q := range []struct {
			kind   string
			get    func() []candidate
			passes func(nd *Node) bool
		}{
			{"cs", func() []candidate { return m.csCandidates(tx) }, func(nd *Node) bool {
				return nd.csTracked && n.rxPowerDBm(tx, nd) >= n.cfg.CSThresholdDBm
			}},
			{"nav", func() []candidate { return m.navCandidates(tx) }, func(nd *Node) bool {
				return n.linkSNRdB(tx, nd) >= need
			}},
		} {
			cands := hoodNodes(m, q.get())
			seen := make(map[*Node]bool, len(cands))
			lastOrd := -1
			for _, c := range cands {
				if c.ord <= lastOrd {
					t.Fatalf("%s candidates of %s not in membership order", q.kind, tx.Name)
				}
				lastOrd = c.ord
				seen[c] = true
			}
			for _, nd := range members {
				if nd == tx || !q.passes(nd) {
					continue
				}
				if !seen[nd] {
					t.Fatalf("%s query at %s dropped in-range node %s (dist %.1f m)",
						q.kind, tx.Name, nd.Name, dist(tx, nd))
				}
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
		members := hoodNodes(m, m.entries)
		for step := 0; step < 60; step++ {
			nd := members[n.Src().Intn(len(members))]
			nd.X = (n.Src().Float64() - 0.25) * 600
			nd.Y = (n.Src().Float64() - 0.25) * 600
			n.gains.refresh([]*Node{nd})
			m.grid.update(nd)
			flip := members[n.Src().Intn(len(members))]
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
	cfg.RoamIntervalUs = 100000 // the walker moves (gainState.refresh)
	n := New(cfg, 3)
	b1 := n.AddAP("AP1", 0, 0, 1)
	b2 := n.AddAP("AP2", 40, 0, 6)
	st := n.AddStation(b1, "walker", 5, 0)
	n.build()
	st.joinCS()
	m1, m2 := n.media[0], n.media[1]

	inGrid := func(m *medium, nd *Node) bool {
		for _, c := range hoodNodes(m, m.csCandidates(nd)) {
			if c == nd {
				return true
			}
		}
		return false
	}
	// The small-membership cutover would serve csCandidates from
	// m.entries; force the grid path so the test sees the index itself.
	if inGrid(m1, st) != true {
		t.Fatal("walker missing from its home medium")
	}
	for _, c := range []struct {
		m  *medium
		nd *Node
	}{{m1, st}} {
		cands := hoodNodes(c.m, c.m.grid.hood(c.nd))
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
	n.gains.refresh([]*Node{st})
	m1.grid.update(st)
	st.reassociate(b2)
	if st.med != m2 {
		t.Fatalf("walker on medium %d, want channel 6", st.med.channel)
	}
	hood2 := hoodNodes(m2, m2.grid.hood(st))
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

// gridLinkFault checks every grid's cell links: each live cell is
// non-empty and filed under its own key, its nbrs list is exactly
// itself plus the map's cells of its 3x3 block, once each (so no
// deleted cell is referenced), and every node filed in a grid points
// at the map's cell for its position's key and is listed in it. It
// returns the first fault, or "".
func gridLinkFault(n *Network) string {
	for _, m := range n.media {
		g := m.grid
		if g == nil {
			continue
		}
		for k, c := range g.cells {
			if c.key != k || len(c.entries) == 0 {
				return fmt.Sprintf("channel %d: cell %v keyed %v holds %d nodes", m.channel, k, c.key, len(c.entries))
			}
			want := 0
			for ix := k.ix - 1; ix <= k.ix+1; ix++ {
				for iy := k.iy - 1; iy <= k.iy+1; iy++ {
					if g.cells[cellKey{ix, iy}] != nil {
						want++
					}
				}
			}
			seen := make(map[*gridCell]bool, len(c.nbrs))
			for _, nb := range c.nbrs {
				if g.cells[nb.key] != nb {
					return fmt.Sprintf("channel %d: cell %v links cell %v, which the map no longer holds", m.channel, k, nb.key)
				}
				if max(abs(nb.key.ix-k.ix), abs(nb.key.iy-k.iy)) > 1 || seen[nb] {
					return fmt.Sprintf("channel %d: cell %v links cell %v outside its block or twice", m.channel, k, nb.key)
				}
				seen[nb] = true
			}
			if !seen[c] || len(c.nbrs) != want {
				return fmt.Sprintf("channel %d: cell %v links %d cells (itself: %v), its block holds %d",
					m.channel, k, len(c.nbrs), seen[c], want)
			}
		}
	}
	for _, nd := range n.nodes {
		g := nd.med.grid
		if g == nil {
			continue
		}
		k := g.keyFor(nd.X, nd.Y)
		if nd.gc == nil || nd.gc != g.cells[k] {
			return fmt.Sprintf("%s points at a cell other than its key %v's", nd.Name, k)
		}
		if !slices.Contains(nd.gc.entries, candidateOf(nd)) {
			return fmt.Sprintf("%s is not listed in its cell %v", nd.Name, k)
		}
	}
	return ""
}

func abs(x int) int { return max(x, -x) }

// hoodFault checks every built carrier-sense hood against the cell
// map: each cell's tracked list holds exactly its csTracked nodes, and
// each cached hood lists exactly the csTracked nodes of its 3x3 block,
// as {gi, ord} entries in ord order, each of which the medium resolves
// (members[gi]) to that node. It returns the first fault, or "".
func hoodFault(n *Network) string {
	for _, m := range n.media {
		g := m.grid
		if g == nil {
			continue
		}
		for k, c := range g.cells {
			var want []candidate
			for _, nd := range hoodNodes(m, c.entries) {
				if nd.csTracked {
					want = append(want, candidateOf(nd))
				}
			}
			if len(c.tracked) != len(want) {
				return fmt.Sprintf("channel %d: cell %v tracks %d entries, holds %d tracked nodes",
					m.channel, k, len(c.tracked), len(want))
			}
			for _, e := range want {
				if !slices.Contains(c.tracked, e) {
					return fmt.Sprintf("channel %d: cell %v does not track %+v", m.channel, k, e)
				}
			}
			if c.hood == nil {
				continue
			}
			var block []*Node
			for ix := k.ix - 1; ix <= k.ix+1; ix++ {
				for iy := k.iy - 1; iy <= k.iy+1; iy++ {
					if nb := g.cells[cellKey{ix, iy}]; nb != nil {
						for _, nd := range hoodNodes(m, nb.entries) {
							if nd.csTracked {
								block = append(block, nd)
							}
						}
					}
				}
			}
			slices.SortFunc(block, func(a, b *Node) int { return a.ord - b.ord })
			if len(c.hood) != len(block) {
				return fmt.Sprintf("channel %d: cell %v's hood lists %d entries, its block holds %d tracked nodes",
					m.channel, k, len(c.hood), len(block))
			}
			for i, e := range c.hood {
				if nd := block[i]; e != candidateOf(nd) || m.members[e.gi] != nd {
					return fmt.Sprintf("channel %d: cell %v's hood entry %d is %+v, want %s (gi %d, ord %d)",
						m.channel, k, i, e, nd.Name, nd.gi, nd.ord)
				}
			}
		}
	}
	return ""
}

// gridWalkers is a 3x3 grid of APs 40 m apart on one channel, two
// stations each, plus four SetVelocity walkers that leave it at 860–
// 1100 m/s in different directions — several ~114 m carrier-sense cells
// a second each — with a light uplink apiece, so their tracking churns
// while they cross cells that are created and emptied behind them.
func gridWalkers(seed int64) *Network {
	cfg := DefaultConfig()
	cfg.RoamIntervalUs = 50000
	n := New(cfg, seed)
	var home *BSS
	for i := range 9 {
		x, y := float64(40*(i%3)), float64(40*(i/3))
		b := n.AddAP(fmt.Sprintf("AP%d", i), x, y, 1)
		if i == 4 {
			home = b
		}
		for s := range 2 {
			n.AddStation(b, fmt.Sprintf("sta%d.%d", i, s), x+5, y+float64(5*s))
		}
	}
	for i, v := range [][2]float64{{1100, 0}, {-700, 500}, {0, -900}, {700, 700}} {
		st := n.AddStation(home, fmt.Sprintf("walker%d", i), 40, 40)
		n.SetVelocity(st, v[0], v[1])
		n.Add(FlowSpec{From: st, AC: AC_BE, Gen: Poisson{PayloadBytes: 300, PktPerSec: 200}})
	}
	return n
}

// TestGridNeighborLinks holds the grid's cell links (gridCell.nbrs,
// Node.gc) to the cell map after every roam tick: on every mobile
// harness input, through the watchGrid observer on its poisoned run,
// and on gridWalkers, whose walkers leave the floor: an emptied cell
// must be unlinked from its neighbours, or their lists would keep it
// (and its node lists) alive. Every built hood must also match its
// block's tracked nodes entry for entry (hoodFault), so a tracking
// change that misses a cached hood, or a move that leaves one stale,
// fails it.
func TestGridNeighborLinks(t *testing.T) {
	eachReport(t, gridCheck)
	n := gridWalkers(1)
	n.Prepare()
	w := watchGrid(n)
	if w.fault != "" {
		t.Fatalf("grid-walkers: %s", w.fault)
	}
	floorCells := len(n.media[0].grid.cells)
	n.Run(1e6)
	if w.fault != "" {
		t.Fatalf("grid-walkers: %s", w.fault)
	}
	if w.ticks == 0 {
		t.Fatal("grid-walkers: no roam tick observed")
	}
	// The walkers must really have crossed cells and left the floor,
	// and the cells behind them must be gone.
	g := n.media[0].grid
	for _, nd := range n.nodes {
		if strings.HasPrefix(nd.Name, "walker") {
			if c, k := nd.gc.key, g.keyFor(0, 0); max(abs(c.ix-k.ix), abs(c.iy-k.iy)) < 5 {
				t.Fatalf("%s ended in cell %v, under 5 cells from the floor's %v", nd.Name, c, k)
			}
		}
	}
	if len(g.cells) > floorCells+4 {
		t.Fatalf("grid-walkers: %d live cells at the end, want the floor's %d plus one per walker",
			len(g.cells), floorCells)
	}
}

// gridWatch is what watchGrid observed: the roam ticks, and the first
// grid fault ("" when none): a network with no spatial index, or a
// fault after a tick.
type gridWatch struct {
	ticks int
	fault string
}

// watchGrid arms an observer on prepared n right after every roam tick
// of the run that follows (scheduled later for the same instant, it
// runs after the scan) that checks the grid's cell links
// (gridLinkFault) and hoods (hoodFault). Both skip media without a
// grid, so a network on which no medium built one is a fault up front:
// every input the check runs on must take the grid path.
func watchGrid(n *Network) *gridWatch {
	w := &gridWatch{}
	if !slices.ContainsFunc(n.media, func(m *medium) bool { return m.grid != nil }) {
		w.fault = "spatial index not built"
		return w
	}
	eng := &n.shards[0].eng
	var observe func()
	observe = func() {
		w.ticks++
		d := gridLinkFault(n)
		if d == "" {
			d = hoodFault(n)
		}
		if d != "" && w.fault == "" {
			w.fault = fmt.Sprintf("after the tick at t=%v: %s", eng.Now(), d)
		}
		eng.Schedule(n.cfg.RoamIntervalUs, observe)
	}
	eng.Schedule(n.cfg.RoamIntervalUs, observe)
	return w
}

// TestHoodRebuildAllocatesOnce pins a hood rebuild at one allocation:
// the candidate list is sized to its block's tracked count before it
// is gathered, so neither the gather nor the sort grows it.
func TestHoodRebuildAllocatesOnce(t *testing.T) {
	n := buildRandomFloor(t, 1, 200, 1500)
	m := n.media[0]
	// Probe at the node whose block gathers tracked entries from the
	// most cells, so an unsized gather would have to grow.
	var probe *Node
	cells := 0
	for _, nd := range hoodNodes(m, m.entries) {
		k := 0
		for _, nb := range nd.gc.nbrs {
			if len(nb.tracked) > 0 {
				k++
			}
		}
		if k > cells {
			probe, cells = nd, k
		}
	}
	if cells < 2 {
		t.Fatalf("no block gathers tracked nodes from two cells (best %d)", cells)
	}
	want := len(m.grid.hood(probe))
	allocs := testing.AllocsPerRun(20, func() {
		probe.gc.hood = nil
		if got := len(m.grid.hood(probe)); got != want {
			t.Fatalf("rebuilt hood lists %d entries, want %d", got, want)
		}
	})
	if allocs != 1 {
		t.Fatalf("a hood rebuild allocated %v times, want 1", allocs)
	}
}
