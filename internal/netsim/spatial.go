package netsim

import (
	"math"

	"repro/internal/channel"
)

// Spatial grid index over node positions, one per medium. medium.start
// used to scan every node on the channel for carrier sense and NAV
// adoption — O(nodes) per transmission, which is what made 100+ BSS
// floors quadratic-ish in the hot loop. The grid buckets nodes into
// square cells sized to the carrier-sense range implied by the
// path-loss model, so a query visits only the cells a sensing node
// could possibly occupy; the common carrier-sense query (radius ==
// cell size, a 3x3 block) is additionally served from a per-cell
// neighborhood cache that is invalidated only when membership around
// the cell changes, so on a floor where nobody is roaming it is built
// once. Each cell links the live cells of its 3x3 block (gridCell.nbrs)
// and each node points at its cell (Node.gc), so a transmission's
// carrier-sense candidate list, a tracking change's cache patch and a
// membership change's invalidation follow pointers and pay no map
// lookup; the map serves only cell creation, re-filing a moved node and
// the general-radius NAV query, whose decode range spans more than the
// 3x3 block.
//
// Membership is held one way throughout: as packed {gi, ord} entries
// (candidate), a gain index and a membership number, never as Nodes.
// A medium lists its members so (medium.entries), a cell its members
// and their tracked subset, a hood its block's tracked entries, and the
// NAV query gathers its cells' member entries. A rebuild gathers and
// sorts entries, and a tracking change patches them, without loading a
// Node. medium.start's carrier-sense and NAV scans test each entry's
// power in the sender's own gain row first and resolve it to its Node
// (medium.members) only when the frame reaches it: on a dense floor
// most candidates sit below the threshold, and their Nodes are never
// touched.
//
// Correctness contract: a query at radius r returns a SUPERSET of the
// nodes within r metres of the probe point (cells are visited by a
// conservative Chebyshev bound), and the caller re-applies the exact
// power/SNR predicate it always used — so the index can never change
// which nodes sense a frame, only how many are inspected. The radii in
// Network.indexRanges invert the same path-loss curve the gains are
// computed from, so no pair reaches past them. Candidates are returned
// sorted by medium-membership order (Node.ord), which makes the indexed scan
// visit nodes in exactly the order the brute-force scan over
// medium.entries would — a requirement for bit-for-bit equivalence, since
// carrier-sense pauses schedule events and event order is simulation
// state. The disableSpatialIndex oracle (oracles) keeps the
// brute-force scan available to test against.

// cellKey addresses one grid cell. Positions are unbounded (roaming
// walks leave any fixed floor), so cells live in a map rather than a
// dense array.
type cellKey struct{ ix, iy int }

// candidate is one membership entry — a carrier-sense or NAV candidate:
// a node's gain index (Node.gi) and its membership number (Node.ord),
// packed into the size of a pointer. All members of a medium share one
// gain domain, so gi names the node on its medium (medium.members[gi]),
// and ord fixes its place in the scan order.
type candidate struct{ gi, ord int32 }

func candidateOf(nd *Node) candidate { return candidate{int32(nd.gi), int32(nd.ord)} }

// gridCell is one cell's membership (entries, what the NAV query
// gathers) and the csTracked subset of it (tracked: the nodes carrier
// sense must actually touch — see Node.joinCS), both as candidates in
// no particular order, the cached tracked 3x3-neighborhood candidate
// list (nil when stale; gain indices, so neither a rebuild nor the
// scan's threshold test loads a Node), and
// nbrs: the cell itself plus every live cell of its 3x3 block, in no
// particular order (hood sorts what it gathers). A cell links itself
// into its neighbours' nbrs when it is created and unlinks when it
// empties and is deleted, so nbrs never holds a deleted cell. The
// cache is an immutable snapshot: invalidation drops the pointer and a
// rebuild allocates fresh, so a scan that started before a (rare)
// mid-iteration rebuild keeps a consistent view.
type gridCell struct {
	key     cellKey
	entries []candidate
	tracked []candidate
	hood    []candidate
	nbrs    []*gridCell
}

type spatialGrid struct {
	cellM float64
	cells map[cellKey]*gridCell
}

func newSpatialGrid(cellM float64) *spatialGrid {
	if cellM <= 0 || math.IsNaN(cellM) || math.IsInf(cellM, 0) {
		panic("netsim: spatial grid cell size must be positive and finite")
	}
	return &spatialGrid{cellM: cellM, cells: make(map[cellKey]*gridCell)}
}

func (g *spatialGrid) keyFor(x, y float64) cellKey {
	return cellKey{int(math.Floor(x / g.cellM)), int(math.Floor(y / g.cellM))}
}

// invalidateAround drops the neighborhood caches whose 3x3 block
// contains c — c's linked neighbours and c itself.
func invalidateAround(c *gridCell) {
	for _, nb := range c.nbrs {
		nb.hood = nil
	}
}

// newCell creates the cell at k and links it both ways with every live
// cell of its 3x3 block.
func (g *spatialGrid) newCell(k cellKey) *gridCell {
	c := &gridCell{key: k}
	c.nbrs = append(c.nbrs, c)
	for ix := k.ix - 1; ix <= k.ix+1; ix++ {
		for iy := k.iy - 1; iy <= k.iy+1; iy++ {
			if nb := g.cells[cellKey{ix, iy}]; nb != nil {
				c.nbrs = append(c.nbrs, nb)
				nb.nbrs = append(nb.nbrs, c)
			}
		}
	}
	g.cells[k] = c
	return c
}

// dropCell deletes an emptied cell and unlinks it from its neighbours,
// so no nbrs list keeps it (and its lists) alive: a walker that leaves
// the floor would otherwise strand one cell per cell it crossed.
func (g *spatialGrid) dropCell(c *gridCell) {
	for _, nb := range c.nbrs {
		if nb == c {
			continue
		}
		for i, x := range nb.nbrs {
			if x == c {
				last := len(nb.nbrs) - 1
				nb.nbrs[i] = nb.nbrs[last]
				nb.nbrs[last] = nil
				nb.nbrs = nb.nbrs[:last]
				break
			}
		}
	}
	c.nbrs = nil
	delete(g.cells, c.key)
}

// add inserts the node under its current position.
func (g *spatialGrid) add(nd *Node) {
	k := g.keyFor(nd.X, nd.Y)
	c := g.cells[k]
	if c == nil {
		c = g.newCell(k)
	}
	nd.gc = c
	c.entries = append(c.entries, candidateOf(nd))
	if nd.csTracked {
		c.tracked = append(c.tracked, candidateOf(nd))
	}
	invalidateAround(c)
}

// spliceCandidate removes nd's entry from an unordered candidate list.
// Gain indices are unique on a medium, so gi alone names the entry.
func spliceCandidate(list []candidate, nd *Node) []candidate {
	gi := int32(nd.gi)
	for i, x := range list {
		if x.gi == gi {
			last := len(list) - 1
			list[i] = list[last]
			return list[:last]
		}
	}
	return list
}

// remove deletes the node from the cell it was last filed under.
func (g *spatialGrid) remove(nd *Node) {
	c := nd.gc
	if c == nil {
		return
	}
	nd.gc = nil
	c.entries = spliceCandidate(c.entries, nd)
	c.tracked = spliceCandidate(c.tracked, nd)
	invalidateAround(c)
	if len(c.entries) == 0 {
		g.dropCell(c)
	}
}

// update re-files a node whose position changed (roam scan tick). Cheap
// when the move stays inside the current cell, which is the common case
// for walking-speed mobility against CS-range-sized cells.
func (g *spatialGrid) update(nd *Node) {
	if g.keyFor(nd.X, nd.Y) != nd.gc.key {
		g.remove(nd)
		g.add(nd)
	}
}

// setTracked moves the node in or out of its cell's tracked list as it
// joins or leaves carrier-sense bookkeeping, patching the built
// neighborhood caches around the cell in place (ord-insert or splice)
// rather than invalidating them — tracking churns once per idle
// station's packet, and a full gather-and-sort rebuild per churn was a
// measurable slice of the large-floor hot loop. In-place is safe
// because tracking only changes between transmissions, never inside a
// carrier-sense scan.
func (g *spatialGrid) setTracked(nd *Node, on bool) {
	c := nd.gc
	if c == nil {
		return
	}
	if on {
		c.tracked = append(c.tracked, candidateOf(nd))
	} else {
		c.tracked = spliceCandidate(c.tracked, nd)
	}
	for _, nb := range c.nbrs {
		if nb.hood == nil {
			continue
		}
		if on {
			nb.hood = ordInsert(nb.hood, nd)
		} else {
			nb.hood = ordRemove(nb.hood, nd)
		}
	}
}

// ordInsert files nd's entry into an ord-sorted list at its membership
// position.
func ordInsert(list []candidate, nd *Node) []candidate {
	e := candidateOf(nd)
	i := len(list)
	for i > 0 && list[i-1].ord > e.ord {
		i--
	}
	list = append(list, candidate{})
	copy(list[i+1:], list[i:])
	list[i] = e
	return list
}

// ordRemove splices nd's entry out of an ord-sorted list, preserving
// order.
func ordRemove(list []candidate, nd *Node) []candidate {
	gi := int32(nd.gi)
	for i, x := range list {
		if x.gi == gi {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// hood returns the cached tracked 3x3-neighborhood candidate list
// around the node's cell, in membership order — the carrier-sense
// query, whose radius equals the cell size. Only csTracked nodes
// appear: carrier sense has nothing to do at an idle station, so on a
// dense floor with mostly-idle associations the candidate list is the
// handful of live contenders nearby, not the whole neighborhood. The
// returned slice is shared and must not be modified or returned to a
// buffer pool. Ords are unique on a medium, so the sort fixes the
// order whatever order nbrs gathers the cells in. A rebuild makes the
// list in one allocation sized to the block's tracked count, and loads
// no Node.
func (g *spatialGrid) hood(nd *Node) []candidate {
	c := nd.gc
	if c.hood == nil {
		k := 0
		for _, nb := range c.nbrs {
			k += len(nb.tracked)
		}
		out := make([]candidate, 0, k)
		for _, nb := range c.nbrs {
			out = append(out, nb.tracked...)
		}
		sortCandidates(out)
		c.hood = out
	}
	return c.hood
}

// sortCandidates restores membership order over gathered cells'
// candidates: an insertion sort, since the input is a handful of nearly
// ascending runs, one per cell (a cell's list is in ord order until
// roaming disturbs it), and it runs in about one comparison per entry
// without the closure-call overhead of the generic sort.
func sortCandidates(list []candidate) {
	for i := 1; i < len(list); i++ {
		e := list[i]
		j := i - 1
		for j >= 0 && list[j].ord > e.ord {
			list[j+1] = list[j]
			j--
		}
		list[j+1] = e
	}
}

// query appends the candidate of every node within radiusM of (x, y) —
// plus, by cell granularity, some neighbors just beyond it — to out and
// returns the extended slice, unsorted. Two points d apart sit at most
// ceil(d/cell) cell indices apart per axis (the worst alignment puts
// them just across a boundary), so the Chebyshev ring bound
// ceil(r/cell) covers every candidate. This is the general-radius path (NAV adoption at
// decode range); the radius == cell carrier-sense query goes through
// hood instead.
func (g *spatialGrid) query(x, y, radiusM float64, out []candidate) []candidate {
	c := g.keyFor(x, y)
	kr := int(math.Ceil(radiusM / g.cellM))
	for ix := c.ix - kr; ix <= c.ix+kr; ix++ {
		for iy := c.iy - kr; iy <= c.iy+kr; iy++ {
			if nb := g.cells[cellKey{ix, iy}]; nb != nil {
				out = append(out, nb.entries...)
			}
		}
	}
	return out
}

// indexRanges derives the two query radii the medium needs from the
// configured propagation model:
//
//   - csM: the farthest distance at which any transmission can still
//     arrive above Config.CSThresholdDBm (energy-detect carrier sense).
//     This is also the grid cell size, so a carrier-sense query visits
//     a 3x3 cell block.
//   - navM: the farthest distance at which the most robust mode's SNR
//     requirement can still be met — the decode range that NAV adoption
//     reaches, which extends below the energy-detect threshold.
//
// Both start from the link budget, the received power at 0 dB of path
// loss. Ranges are clamped to [1 m, 1e7 m]; a threshold so low that the
// cap binds just degenerates the grid toward one floor-sized cell, i.e.
// the brute-force scan.
func (n *Network) indexRanges() (csM, navM float64) {
	gainDBm := n.cfg.Budget.BudgetDBm()
	csM = maxDistForLoss(n.cfg.PathLoss, gainDBm-n.cfg.CSThresholdDBm)
	navM = maxDistForLoss(n.cfg.PathLoss, gainDBm-(n.noiseFloorDBm+n.robustMode().SnrReqDB))
	return csM, navM
}

// maxRangeM caps the ranges indexRanges derives.
const maxRangeM = 1e7

// maxDistForLoss inverts the monotone path-loss curve: the largest
// distance whose median loss stays within lossBudgetDB.
func maxDistForLoss(m channel.PathLossModel, lossBudgetDB float64) float64 {
	const lo0, hi0 = 1.0, maxRangeM
	if m.LossDB(lo0) > lossBudgetDB {
		return lo0
	}
	if m.LossDB(hi0) <= lossBudgetDB {
		return hi0
	}
	lo, hi := lo0, hi0
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(lo * hi)
		if m.LossDB(mid) <= lossBudgetDB {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
