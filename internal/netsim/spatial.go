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
// candidate list, a tracking change's cache patch and a membership
// change's invalidation follow pointers and pay no map lookup; the map
// serves only cell creation, re-filing a moved node and the
// general-radius NAV query.
//
// Correctness contract: a query at radius r returns a SUPERSET of the
// nodes within r metres of the probe point (cells are visited by a
// conservative Chebyshev bound), and the caller re-applies the exact
// power/SNR predicate it always used — so the index can never change
// which nodes sense a frame, only how many are inspected. The radii in
// Network.indexRanges fold in the most favorable shadowing draw of the
// whole deployment, keeping the superset guarantee even when a lucky
// pair reaches beyond the median range. Candidates are returned sorted
// by medium-membership order (Node.ord), which makes the indexed scan
// visit nodes in exactly the order the brute-force scan over
// medium.nodes would — a requirement for bit-for-bit equivalence, since
// carrier-sense pauses schedule events and event order is simulation
// state. Config.disableSpatialIndex keeps the brute-force scan
// available as the test oracle.

// cellKey addresses one grid cell. Positions are unbounded (roaming
// walks leave any fixed floor), so cells live in a map rather than a
// dense array.
type cellKey struct{ ix, iy int }

// gridCell is one cell's membership, the csTracked subset of it (the
// nodes carrier sense must actually touch — see Node.joinCS), the
// cached tracked 3x3-neighborhood candidate list (nil when stale), and
// nbrs: the cell itself plus every live cell of its 3x3 block, in no
// particular order (hood sorts what it gathers). A cell links itself
// into its neighbours' nbrs when it is created and unlinks when it
// empties and is deleted, so nbrs never holds a deleted cell. The
// cache is an immutable snapshot: invalidation drops the pointer and a
// rebuild allocates fresh, so a scan that started before a (rare)
// mid-iteration rebuild keeps a consistent view.
type gridCell struct {
	key     cellKey
	nodes   []*Node
	tracked []*Node
	hood    []*Node
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
	nd.cell, nd.gc = k, c
	c.nodes = append(c.nodes, nd)
	if nd.csTracked {
		c.tracked = append(c.tracked, nd)
	}
	invalidateAround(c)
}

func spliceNode(list []*Node, nd *Node) []*Node {
	for i, x := range list {
		if x == nd {
			last := len(list) - 1
			list[i] = list[last]
			list[last] = nil
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
	c.nodes = spliceNode(c.nodes, nd)
	c.tracked = spliceNode(c.tracked, nd)
	invalidateAround(c)
	if len(c.nodes) == 0 {
		g.dropCell(c)
	}
}

// update re-files a node whose position changed (roam scan tick). Cheap
// when the move stays inside the current cell, which is the common case
// for walking-speed mobility against CS-range-sized cells.
func (g *spatialGrid) update(nd *Node) {
	if k := g.keyFor(nd.X, nd.Y); k != nd.cell {
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
		c.tracked = append(c.tracked, nd)
	} else {
		c.tracked = spliceNode(c.tracked, nd)
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

// ordInsert files nd into an ord-sorted list at its membership
// position.
func ordInsert(list []*Node, nd *Node) []*Node {
	i := len(list)
	for i > 0 && list[i-1].ord > nd.ord {
		i--
	}
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = nd
	return list
}

// ordRemove splices nd out of an ord-sorted list, preserving order.
func ordRemove(list []*Node, nd *Node) []*Node {
	for i, x := range list {
		if x == nd {
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
// order whatever order nbrs gathers the cells in.
func (g *spatialGrid) hood(nd *Node) []*Node {
	c := nd.gc
	if c.hood == nil {
		out := []*Node{}
		for _, nb := range c.nbrs {
			out = append(out, nb.tracked...)
		}
		sortByOrd(out)
		c.hood = out
	}
	return c.hood
}

// query appends every node within radiusM of (x, y) — plus, by cell
// granularity, some neighbors just beyond it — to out and returns the
// extended slice, unsorted. Two points d apart sit at most ceil(d/cell)
// cell indices apart per axis (the worst alignment puts them just
// across a boundary), so the Chebyshev ring bound ceil(r/cell) covers
// every candidate. This is the general-radius path (NAV adoption at
// decode range); the radius == cell carrier-sense query goes through
// hood instead.
func (g *spatialGrid) query(x, y, radiusM float64, out []*Node) []*Node {
	c := g.keyFor(x, y)
	kr := int(math.Ceil(radiusM / g.cellM))
	for ix := c.ix - kr; ix <= c.ix+kr; ix++ {
		for iy := c.iy - kr; iy <= c.iy+kr; iy++ {
			if nb := g.cells[cellKey{ix, iy}]; nb != nil {
				out = append(out, nb.nodes...)
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
// Both radii widen by the most favorable (most negative) shadowing draw
// over every node pair, so per-pair shadowing can never push a sensing
// node outside the queried cells. Ranges are clamped to [1 m, 1e7 m]; a
// threshold so low that the cap binds just degenerates the grid toward
// one floor-sized cell, i.e. the brute-force scan.
func (n *Network) indexRanges() (csM, navM float64) {
	b := n.cfg.Budget
	gainDBm := b.TxPowerDBm + b.TxAntennaGain + b.RxAntennaGain - n.minShadowDB()
	csM = maxDistForLoss(n.cfg.PathLoss, gainDBm-n.cfg.CSThresholdDBm)
	navM = maxDistForLoss(n.cfg.PathLoss, gainDBm-(n.noiseFloorDBm+n.robustMode().SnrReqDB))
	return csM, navM
}

// maxDistForLoss inverts the monotone path-loss curve: the largest
// distance whose median loss stays within lossBudgetDB.
func maxDistForLoss(m channel.PathLossModel, lossBudgetDB float64) float64 {
	const lo0, hi0 = 1.0, 1e7
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
