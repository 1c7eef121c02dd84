package netsim

import (
	"math"
	"slices"

	"repro/internal/channel"
	"repro/internal/mathx"
	"repro/internal/sim"
)

// gainState is a Network's pairwise gain state: the received powers, in
// milliwatts, of every pair a run can read, and what a build with
// mobility keeps to refresh them. The rest of the package reads it
// through its methods and the rows themselves (Node.gain).
//
// The gains are split into gain domains, sets of nodes whose pairwise
// powers a run can read. A static build makes one domain per channel
// (per bonded component, keyed by chanRoot): carrier sense, NAV decode
// and the interference crossing stay inside one medium. It merges the
// domains a flow connects, as the shard planner does: a station pinned
// to an AP on another channel sends to a receiver off its medium, so
// its rate choice and every concurrent sender's interference at that
// AP read gains between the channels (a STA→STA relay's second hop is
// sent by the destination's own AP and reads none; merging it too
// keeps the rule one line). A build with mobility
// (Config.RoamIntervalUs > 0) is one domain: the roam scan compares
// every AP at every station, and a roamer may change channel.
//
// members lists every node, domain by domain and in id order within a
// domain; domain d is members[bounds[d]:bounds[d+1]], and a node's
// index in it is Node.gi. Each node holds its own row of its domain, a
// capacity-capped view into a backing array of at most gainBlockBytes
// (gainRows), so every per-frame decision reads a pair's power from a
// node's own row, tx.gain[rx.gi] (rxPowerMw), against thresholds New
// converts to mW once. Both cells of a pair hold the same bits, which
// every write keeps: the interference crossing reads a pair from the
// row of either end (medium.start).
//
// A static build computes only the pairs whose power a run can use
// (fill). A run uses a pair's value only with a frame receiver in it:
// the interference crossing, the SINR judgment and the rate choice
// each read a pair of a frame's receiver. Frames go to APs and to
// flows' To nodes, and with RTS/CTS on (Config.RtsThresholdBytes > 0)
// the CTS goes back to the data sender, a flow's From. Every other
// read only tests a threshold: the carrier-sense scan and hears
// against CSThresholdDBm, and the NAV scan, which runs for RTS and CTS
// frames only, against the most robust mode's decode power. So a pair
// with no receiver is computed only within the reach those tests can
// pass at, csRangeM or, with RTS on, the larger of it and navRangeM,
// plus reachMarginM so that rounding at the boundary cannot flip a
// verdict. Beyond it the true power is below every threshold it is
// tested against (the OBSS-PD backoff and the bonded half-slot penalty
// only lower it), and the 0 the cell was allocated with takes the same
// branch, so every verdict, and every counter, is the one a full
// matrix gives. A mobile build computes every pair; its roam ticks
// recompute only the readable ones (refresh).
//
// sites holds each flat member's position and the squared reach of its
// pairs (reach2: +Inf for a receiver and in a mobile build), so fill
// tests and measures a pair without loading the other node. skipMw is
// what fill leaves in a skipped cell: 0, or under the
// poisonSkippedGains oracle the loudest power every threshold test
// still calls quiet. fillPairs counts the pairs fill computed
// (Result.GainFillPairs).
//
// movers, offAir and cells are a roam tick's reused scratch (moved,
// refresh, refreshStripe, refreshRow), allocated at a build with
// mobility with room for every node, so a tick allocates nothing.
// refreshPairs counts the pairs refresh and refreshRow have recomputed
// (Result.GainRefreshPairs).
type gainState struct {
	n *Network

	members []*Node
	bounds  []int

	sites     []gainSite
	skipMw    float64
	fillPairs int

	movers       []*Node
	offAir       []airRx
	cells        [][]gainCell
	refreshPairs int
}

// gainSite is a flat member's position, and the squared distance
// within which fill computes its pairs.
type gainSite struct {
	x, y, reach2 float64
}

// reachMarginM widens a static build's reach past the carrier-sense and
// NAV ranges, which are bisected on the same loss curve the gains are
// computed on: at a metre past them the loss exceeds the threshold's by
// far more than the last bits a rounding can move.
const reachMarginM = 1.0

// build lays out the gain domains and fills their received-power rows.
// It reads the spatial-index radii (Network.csRangeM, navRangeM) for a
// static build's reach.
func (g *gainState) build() {
	g.layout()
	if n := g.n; n.oracle.poisonSkippedGains && n.cfg.RoamIntervalUs == 0 {
		quiet := n.csMw
		if n.cfg.RtsThresholdBytes > 0 {
			quiet = min(quiet, n.navMw)
		}
		g.skipMw = math.Nextafter(quiet, 0)
	}
	gainRows(g.bounds, func(r int, row []float64) { g.members[r].gain = row })
	if nn := len(g.n.nodes); g.n.cfg.RoamIntervalUs > 0 {
		g.movers = make([]*Node, 0, nn)
		workers := g.stripes(nn)
		back := make([]gainCell, workers*nn)
		g.cells = make([][]gainCell, workers)
		for w := range g.cells {
			g.cells[w] = back[w*nn : w*nn : (w+1)*nn]
		}
	}
	g.fill()
}

// layout partitions the nodes into gain domains: union-find over BSS
// indices, merging BSSs on one channel key (the channel, or its
// chanRoot when bonded) and BSSs a flow connects, or one domain holding
// everything under mobility and under the oneGainDomain oracle. It sets
// members, bounds and every Node.gi, and each site's reach: the static
// reach (fillReach2), or +Inf for a frame receiver, under mobility and
// under the oneGainDomain oracle, whose fill is thus the full one.
// Domains are numbered in the order of their smallest BSS index. No
// maps, and five slices however many domains there are (two under
// mobility): builds are frequent in the experiments, and CI gates their
// allocs/op.
func (g *gainState) layout() {
	n := g.n
	nb, nn := len(n.bss), len(n.nodes)
	g.sites = make([]gainSite, nn)
	if n.cfg.RoamIntervalUs > 0 || n.oracle.oneGainDomain {
		// n.nodes is final once built, and already in id order.
		g.members = n.nodes
		g.bounds = []int{0, nn}
		for i, nd := range n.nodes {
			nd.gi = i
			g.sites[i].reach2 = math.Inf(1)
		}
		return
	}
	domOf := make([]int, nb)
	key := func(b *BSS) int {
		if n.bonded {
			return n.chanRoot[b.Channel]
		}
		return b.Channel
	}
	// Merge each BSS into the first BSS on its channel key: until the
	// flows are merged below, every set's root is its key's first BSS.
	uf := newUnionFind(make([]int, nb))
	for i, b := range n.bss {
		k := key(b)
		for j := range i {
			if uf[j] == j && key(n.bss[j]) == k {
				uf.union(j, i)
				break
			}
		}
	}
	for _, f := range n.flows {
		if f.To != nil {
			uf.union(f.From.bss.idx, f.To.bss.idx)
		}
	}
	domains := uf.number(domOf)
	// Counting sort, nodes in id order: bounds[d+1] counts domain d's
	// nodes, then holds its start and serves as its cursor, which leaves
	// it at the domain's end.
	bounds := make([]int, domains+1)
	for _, nd := range n.nodes {
		bounds[domOf[nd.bss.idx]+1]++
	}
	start := 0
	for d := range domains {
		bounds[d+1], start = start, start+bounds[d+1]
	}
	g.members = make([]*Node, nn)
	for _, nd := range n.nodes {
		d := domOf[nd.bss.idx]
		g.members[bounds[d+1]] = nd
		bounds[d+1]++
	}
	reach2 := g.fillReach2()
	for d := range domains {
		for r := bounds[d]; r < bounds[d+1]; r++ {
			nd := g.members[r]
			nd.gi = r - bounds[d]
			g.sites[r].reach2 = reach2
			if nd.ap {
				g.sites[r].reach2 = math.Inf(1)
			}
		}
	}
	// The flows' other receivers: each To, and with RTS/CTS on each
	// From, which the CTS answers. A node's flat index is its domain's
	// start plus its gi.
	receiver := func(nd *Node) { g.sites[bounds[domOf[nd.bss.idx]]+nd.gi].reach2 = math.Inf(1) }
	for _, f := range n.flows {
		if f.To != nil {
			receiver(f.To)
		}
		if n.cfg.RtsThresholdBytes > 0 {
			receiver(f.From)
		}
	}
	g.bounds = bounds
}

// fillReach2 is the squared distance within which a static build
// computes a pair with no frame receiver in it: the carrier-sense
// reach, or with RTS/CTS on the larger of it and the NAV-decode reach,
// plus reachMarginM. A reach at indexRanges' cap is no bound, and
// computes every pair.
func (g *gainState) fillReach2() float64 {
	n := g.n
	r := n.csRangeM
	if n.cfg.RtsThresholdBytes > 0 {
		r = max(r, n.navRangeM)
	}
	if r >= maxRangeM {
		return math.Inf(1)
	}
	r += reachMarginM
	return r * r
}

// domains is the number of gain domains.
func (g *gainState) domains() int { return len(g.bounds) - 1 }

// domain returns domain d's member slice, in which each node sits at
// index gi.
func (g *gainState) domain(d int) []*Node {
	lo, hi := g.bounds[d], g.bounds[d+1]
	return g.members[lo:hi:hi]
}

// domainOf returns the member slice of nd's gain domain. Under mobility
// that is every node (Network.nodes). A medium keeps it to resolve
// carrier-sense candidates (gain indices) to Nodes.
func (g *gainState) domainOf(nd *Node) []*Node {
	for d := range g.domains() {
		if dom := g.domain(d); nd.gi < len(dom) && dom[nd.gi] == nd {
			return dom
		}
	}
	panic("netsim: node " + nd.Name + " is in no gain domain")
}

// fill computes every domain's received powers, each unordered
// same-domain pair once, with the flat member rows striped across
// goroutines (sim.Parallel): the O(k²) path-loss logs and dB→mW
// exponentials dominate setup on 1000+ node floors. A pair farther
// apart than both its sites' reach is skipped, and its cells hold
// skipMw (the static rule in the gainState comment). Row a's stripe
// writes a's upper cells a.gain[b.gi] (a's id below b's) and mirrors
// each into b's lower cell, so every cell has one writer. The per-pair
// math is pure, so the cells hold the bits a single n×n matrix would,
// however many stripes run. fill first copies every member's position
// into its site, so it reads the positions the nodes hold now.
func (g *gainState) fill() {
	for r, nd := range g.members {
		g.sites[r].x, g.sites[r].y = nd.X, nd.Y
	}
	step := g.stripes(len(g.members))
	if step < 2 {
		g.fillPairs = g.fillStripe(0, 1) // inline: a one-stripe fill allocates nothing
		return
	}
	var pairs [8]int
	sim.Parallel(step, step, func(w int) { pairs[w] = g.fillStripe(w, step) })
	g.fillPairs = 0
	for _, p := range pairs {
		g.fillPairs += p
	}
}

// stripes is how many stripes, one goroutine each, a gain pass striped
// over parts (fill's member rows, refresh's movers) runs on: the
// Network's worker cap (SetWorkers; GOMAXPROCS by default), at most 8
// and at most one per part, or 1 below 256 nodes, where the pass is too
// small to pay for the fan-out. A pass run on one stripe allocates
// nothing.
func (g *gainState) stripes(parts int) int {
	if len(g.n.nodes) < 256 {
		return 1
	}
	return min(sim.Workers(parts, g.n.workers), 8)
}

// fillStripe is one fill worker: it fills the flat member rows r ≡ w
// (mod step) and returns how many pairs it computed. Row r's domain
// starts gi places before it, so the row's cells above the diagonal
// pair it with the members after it. Each row runs in two passes: every
// cell's loss, read off the sites, or skippedLoss past both sites'
// reach, then every computed cell's received power and its mirror
// cell. A skipped cell's mirror is written only when skipMw is not the
// 0 it was allocated with. The +Inf that marks a skipped cell between
// the passes is a computed loss only at an infinite distance, whose
// power is 0 mW too.
func (g *gainState) fillStripe(w, step int) (pairs int) {
	pg := g.newPairGain()
	skip, skippedLoss := g.skipMw, math.Inf(1)
	for r := w; r < len(g.members); r += step {
		a := g.members[r]
		i := a.gi
		others := g.members[r+1 : r-i+len(a.gain)]
		cells := a.gain[i+1:]
		cells = cells[:len(others)] // the same length, stated for bounds-check elimination
		s := g.sites[r]
		sites := g.sites[r+1:]
		sites = sites[:len(cells)]
		for j := range cells {
			o := &sites[j]
			dx, dy := s.x-o.x, s.y-o.y
			if d2 := dx*dx + dy*dy; d2 > s.reach2 && d2 > o.reach2 {
				cells[j] = skippedLoss
				continue
			}
			cells[j] = pg.lossDB(dx, dy)
		}
		for j, o := range others {
			if db := cells[j]; db != skippedLoss {
				mw := pg.mw(db)
				cells[j], o.gain[i] = mw, mw
				pairs++
			} else {
				cells[j] = skip
				if skip != 0 {
					o.gain[i] = skip
				}
			}
		}
	}
	return pairs
}

// pairGain computes one pair's received power in two steps, the one
// formula fillStripe, refreshStripe and refreshRow share, so a cell
// holds the same bits whichever wrote it: lossDB, the median path loss,
// then mw, the received power at that loss.
// The gain passes take each step over a whole row before the next, so
// the row's independent cells overlap in the pipeline rather than
// waiting on one pair's chain of Hypot, Log10 and exp. budgetDBm is the
// link budget (channel.LinkBudget.BudgetDBm).
type pairGain struct {
	curve     channel.LossCurve
	budgetDBm float64
}

func (g *gainState) newPairGain() pairGain {
	cfg := &g.n.cfg
	return pairGain{cfg.PathLoss.Curve(), cfg.Budget.BudgetDBm()}
}

// lossDB is the path loss in dB between two nodes dx and dy apart on
// each axis (dist's Hypot). Distance and path loss are symmetric, so the
// order of the two nodes does not matter.
func (pg *pairGain) lossDB(dx, dy float64) float64 {
	return pg.curve.LossDB(mathx.Hypot(dx, dy))
}

// mw is the received power in mW at a loss of lossDB.
func (pg *pairGain) mw(lossDB float64) float64 {
	return mwFromDBm(pg.budgetDBm - lossDB)
}

// gainCell is one cell of a refresh pass: the other node of a's pair,
// and the pair's loss, which the first pass writes (pairGain.setRow).
type gainCell struct {
	o  *Node
	db float64
}

// setRow runs the two gain passes over a's pairs in cells: the loss of
// each, then the received power, into both cells of the pair.
func (pg *pairGain) setRow(a *Node, cells []gainCell) {
	for c := range cells {
		o := cells[c].o
		cells[c].db = pg.lossDB(a.X-o.X, a.Y-o.Y)
	}
	for _, c := range cells {
		mw := pg.mw(c.db)
		a.gain[c.o.gi], c.o.gain[a.gi] = mw, mw
	}
}

// moved adds nd, which a roam tick has just moved, to the tick's
// movers; the tick adds them in id order.
func (g *gainState) moved(nd *Node) { g.movers = append(g.movers, nd) }

// refreshMoved refreshes the gains of the tick's movers once every
// node has moved: nothing between two moves reads a gain (the grid
// reads positions only), so each moved pair is computed once, at its
// final positions. It empties the movers for the next tick.
func (g *gainState) refreshMoved() {
	g.refresh(g.movers)
	g.movers = g.movers[:0]
}

// refresh recomputes, once each, the pairs with a node in movers (in id
// order) that readable admits. It runs after a tick has moved every
// node and before any station reassociates, so each pair is computed
// at its final positions and judged on the media held through the
// tick; a station that then changes medium recomputes its row
// (refreshRow). Every cell a run can read thus holds the bits a full
// recompute would give it; the others keep older gains and are never
// read (NaN under the poisonSkippedGains oracle). Only a mobile build
// keeps the scratch this needs, and it is one domain, so every pair has
// its cells. A pair belongs to its lower-id mover, and the movers are
// striped like fill's rows, so no two stripes share a cell.
func (g *gainState) refresh(movers []*Node) {
	if g.cells == nil {
		panic("netsim: a gain refresh needs Config.RoamIntervalUs > 0 (a static build splits its gains by channel and keeps no refresh scratch)")
	}
	if len(movers) == 0 {
		return
	}
	for _, sh := range g.n.shards {
		clear(sh.modeCache)
	}
	g.offAir = g.offAir[:0]
	for _, m := range g.n.media {
		for _, a := range m.active {
			if a.rx.med != m {
				g.offAir = append(g.offAir, airRx{a.rx, m})
			}
		}
	}
	step := min(g.stripes(len(movers)), len(g.cells))
	if step < 2 {
		g.refreshPairs += g.refreshStripe(movers, 0, 1) // inline: allocates nothing
		return
	}
	var pairs [8]int
	sim.Parallel(step, step, func(w int) { pairs[w] = g.refreshStripe(movers, w, step) })
	for _, p := range pairs {
		g.refreshPairs += p
	}
}

// airRx is a receiver that roamed off med while a frame on med's air
// was still addressed to it: new frames on med cross interference into
// that frame at the receiver (medium.start), so its gains to med's
// nodes stay readable until the frame ends.
type airRx struct {
	rx  *Node
	med *medium
}

// readable reports whether a run can read the gain between a and o
// before the next roam tick, judged on the media the nodes hold while
// refresh runs: carrier sense, NAV decode, the interference crossing,
// the SINR judgment and the rate choice stay on one medium (an AP's
// frame to a station that roamed away is judged lost, and its retry
// goes to the station's new AP), and the roam scan reads every
// station→AP cell. So a pair is readable when the two share a medium,
// when one is an AP, or when one is an off-medium receiver of a frame
// on the other's medium (offAir).
func (g *gainState) readable(a, o *Node) bool {
	if a.med == o.med || a.ap || o.ap || g.n.oracle.fullGainRefresh {
		return true
	}
	for _, x := range g.offAir {
		if x.rx == a && x.med == o.med || x.rx == o && x.med == a.med {
			return true
		}
	}
	return false
}

// refreshStripe is one refresh worker: it recomputes the readable pairs
// owned by movers k ≡ w (mod step), a mover's at a time in the two gain
// passes over the worker's scratch list (cells), and returns how many
// it computed.
func (g *gainState) refreshStripe(movers []*Node, w, step int) (pairs int) {
	pg := g.newPairGain()
	poison := g.n.oracle.poisonSkippedGains
	for k := w; k < len(movers); k += step {
		a := movers[k]
		cells := g.cells[w][:0]
		// movers[:k] are the movers below a in id order: each owns its
		// pair with a, and the walk over the nodes meets them in order.
		lower := movers[:k]
		for _, o := range g.n.nodes {
			if o == a {
				continue
			}
			if len(lower) > 0 && lower[0] == o {
				lower = lower[1:]
				continue
			}
			if !g.readable(a, o) {
				if poison {
					a.gain[o.gi], o.gain[a.gi] = math.NaN(), math.NaN()
				}
				continue
			}
			cells = append(cells, gainCell{o: o})
		}
		pg.setRow(a, cells)
		pairs += len(cells)
	}
	return pairs
}

// refreshRow recomputes the gains of station nd, which reassociate has
// just moved to another medium, to every node it can now read that the
// tick's refresh may have skipped: the nodes of its new medium, and the
// receivers that roamed off that medium while a frame on its air is
// still addressed to them. Nothing has moved since the tick, so each
// cell gets the bits refresh would have given it. Under the
// fullGainRefresh oracle the tick refreshed every pair already.
func (g *gainState) refreshRow(nd *Node) {
	if g.n.oracle.fullGainRefresh {
		return
	}
	cells := g.cells[0][:0]
	m := nd.med
	for _, c := range m.entries {
		if o := m.members[c.gi]; o != nd {
			cells = append(cells, gainCell{o: o})
		}
	}
	for i, a := range m.active {
		if o := a.rx; o.med != m && !slices.ContainsFunc(m.active[:i], func(b *transmission) bool { return b.rx == o }) {
			cells = append(cells, gainCell{o: o})
		}
	}
	pg := g.newPairGain()
	pg.setRow(nd, cells)
	g.refreshPairs += len(cells)
}

// gainBlockBytes caps one backing array of gain rows.
const gainBlockBytes = 4 << 20

// gainRows allocates the rows of the gain domains whose bounds are
// given (domain d is flat rows [bounds[d], bounds[d+1]), k rows of k
// cells for a domain of k) and hands each, zeroed, to set. The rows are
// capacity-capped views laid end to end into backing arrays of whole
// rows, each at most gainBlockBytes and shared across domains: a few
// allocations instead of one per row, and no per-row size-class
// rounding (allocated alone, a 4,100-cell row of 32,800 B is just over
// the largest small-object class and rounds up to 40,960 B). The block
// cap matters when networks are built one after another in a process:
// a single 134 MB array needs a contiguous free run that the previous
// network's freed rows no longer provide once any small object lands
// inside it, and then the heap grows by a whole matrix; 4 MB blocks
// refill the freed runs. One domain of nn is the nn×nn matrix in
// blocks of gainBlockBytes/(8·nn) rows.
func gainRows(bounds []int, set func(r int, row []float64)) {
	const blockCells = gainBlockBytes / 8
	var back []float64
	for d := 0; d+1 < len(bounds); d++ {
		k := bounds[d+1] - bounds[d]
		for r := bounds[d]; r < bounds[d+1]; r++ {
			if len(back) < k {
				// Size the next block: whole rows from r on while they
				// fit, and at least one.
				cells, rr := 0, r
				for dd := d; dd+1 < len(bounds); dd++ {
					kk := bounds[dd+1] - bounds[dd]
					for ; rr < bounds[dd+1] && (cells == 0 || cells+kk <= blockCells); rr++ {
						cells += kk
					}
					if rr < bounds[dd+1] {
						break
					}
				}
				back = make([]float64, cells)
			}
			set(r, back[:k:k])
			back = back[k:]
		}
	}
}

// bytes is the heap the gain state holds after build: per domain of k
// nodes, k² float64s plus k 24-byte row headers.
func (g *gainState) bytes() int64 {
	var total int64
	for d := range g.domains() {
		k := int64(len(g.domain(d)))
		total += k*k*8 + k*24
	}
	return total
}

// rxPowerMw returns the received power, in milliwatts, at node rx when
// tx transmits. The two must share a gain domain. A static build holds
// 0 for a pair with no frame receiver beyond the tests' reach (fill),
// which no threshold test tells from its power. Under mobility only
// the cells gainState.readable admits are kept current between roam
// ticks: two nodes on one medium, a pair with an AP, and a receiver
// that roamed off the medium of a frame still on the air to it, paired
// with that medium's nodes. Any other cell may hold a gain from older
// positions (NaN under the poisonSkippedGains oracle).
func (n *Network) rxPowerMw(tx, rx *Node) float64 { return tx.gain[rx.gi] }

// rxPowerDBm is the same figure in dBm, read back from the mW rows with
// a logarithm: for the roam scan and the memoized rate choice only,
// never the per-frame path.
func (n *Network) rxPowerDBm(tx, rx *Node) float64 {
	return mathx.LinearToDB(n.rxPowerMw(tx, rx))
}
