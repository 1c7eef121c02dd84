package netsim

import (
	"fmt"
	"sort"

	"repro/internal/linkmodel"
	"repro/internal/rng"
	"repro/internal/sim"
)

// The shard layer: partitioning one Network into independent engines.
//
// A shard is one execution partition — its own sim.Engine, its own
// rng.Source stream, its own media, and its own run counters. While
// sim.RunAll drives the engines, a shard's goroutine may touch only
// state owned by that shard plus the Network's frozen build products
// (config, gain rows, node positions); everything mutable in the
// MAC hot path hangs off the shard a node belongs to.
//
// Partitioning is by interaction group, not by raw grid cell: two BSSs
// interact when any of their nodes share a channel within carrier
// sense, NAV decode, or meaningful-interference range, or when a flow
// connects them (interactionGroups). Shards are unions of whole groups,
// so nothing ever crosses a seam: no frame reaches another shard's
// media, and every flow's endpoints and their APs share one shard.
// Mobility, the sampler and a single attached Probe read state across
// the floor, so they force one engine (planShards). Each engine
// therefore runs straight to the horizon with no synchronization.
//
// Determinism: each shard's event order is a function of its own engine
// and RNG stream only. A run with Shards: N is therefore bit-for-bit
// reproducible for fixed N, independent of worker count or goroutine
// scheduling. With one shard the planner hands the shard the Network's
// own rng.Source un-split, so Shards: 0/1 runs are bit-identical to
// the pre-shard simulator (the compat goldens pin this).

// interferenceMarginDB is how far below the noise floor a foreign
// transmission must arrive before the planner may ignore it: energy at
// noise − 30 dB shifts any SINR by < 0.005 dB, beneath every PER
// curve's resolution.
const interferenceMarginDB = 30

// shard is one independent partition of a Network: an engine, a
// deterministic RNG stream, the media of its BSS groups, and the
// run-counter half of what collect aggregates into a Result.
type shard struct {
	net *Network
	idx int

	eng   sim.Engine
	src   *rng.Source
	probe Probe
	media []*medium

	// modeCache memoizes per-link rate selection within the shard; link
	// SNR only changes when a node moves, which clears it (refreshGains;
	// mobility forces single-shard, so the clear never races).
	modeCache map[[2]int]linkmodel.Mode

	// Run counters, mirrored from the pre-shard Network fields; collect
	// sums them across shards.
	attempts, delivered   [NumACs]int
	collisions, noiseLoss [NumACs]int
	retryDrops, queueDrop [NumACs]int
	rtsSent, rtsFailed    int
	virtualColl           int
	roams                 int
	modeAttempts          map[string]int
	txops                 int
	acAirtimeUs           [NumACs]float64
	ampduHist             map[int]int
	blockAckRetries       int
	acBytesDelivered      [NumACs]int
	obssIgnores           int
	obssReuseTx           int

	// frames recycles the shard's transmission and packet records
	// (framepool.go). okScratch and pktScratch are the Block-ACK path's
	// reusable bitmap and packet list (completeAmpdu, applyBlockAck,
	// failAmpduRts); none of those re-enters another.
	frames     framePool
	okScratch  []bool
	pktScratch []*packet
}

func newShard(n *Network, idx int) *shard {
	sh := &shard{net: n, idx: idx,
		modeCache:    make(map[[2]int]linkmodel.Mode),
		modeAttempts: make(map[string]int)}
	if n.cfg.Aggregation != nil {
		sh.ampduHist = make(map[int]int)
	}
	return sh
}

// mediumFor returns the shard's medium for the channel, creating it on
// first use. Media are per (shard, channel) — per (shard, spectral
// component) under 40 MHz bonding, where partially overlapping
// channels must share one event timeline (Network.chanRoot) — and two
// shards using the same key are beyond interaction range by
// construction, so their media never see each other's frames.
func (sh *shard) mediumFor(ch int) *medium {
	n := sh.net
	if n.bonded {
		ch = n.chanRoot[ch]
	}
	for _, m := range sh.media {
		if m.channel == ch {
			return m
		}
	}
	m := &medium{net: n, sh: sh, channel: ch, bonded: n.bonded}
	if !n.cfg.disableSpatialIndex {
		// Cell size = carrier-sense range: an energy-detect query visits
		// at most the 3x3 block around the transmitter's cell. The range
		// derives from unscaled received power, and bonding's overlap
		// fractions only attenuate — so the cells stay a conservative
		// superset under partial spectral overlap too.
		m.grid = newSpatialGrid(n.csRangeM)
	}
	sh.media = append(sh.media, m)
	n.media = append(n.media, m)
	return m
}

// linkMode selects the best rate-table mode for the link at its median
// SNR (10% PER ceiling, falling back to the most robust mode). The
// choice is memoized per link until a move invalidates the gains. Lives
// on the shard so concurrent shards never share the cache map.
func (sh *shard) linkMode(tx, rx *Node) linkmodel.Mode {
	key := [2]int{tx.id, rx.id}
	if m, ok := sh.modeCache[key]; ok {
		return m
	}
	n := sh.net
	m, _ := linkmodel.BestMode(n.cfg.Modes, n.linkSNRdB(tx, rx), false, 0.1)
	sh.modeCache[key] = m
	return m
}

// ShardPlan describes how Prepare partitioned the deployment.
type ShardPlan struct {
	// Requested is Config.Shards as given (0 normalizes to 1); Shards is
	// the count actually running, after clamping to the number of
	// interaction groups or falling back to 1.
	Requested int
	Shards    int

	// Groups is the number of independent interaction groups the floor
	// decomposes into (1 when planning was skipped).
	Groups int

	// FlowEdgeMerges counts interaction groups that were distinct on
	// radio coupling alone but were merged because a flow connects them
	// — the planner's explicit closed-loop guarantee: transport feedback
	// (Flow.Control fate hooks, transport.Conn ACK clocking) never
	// crosses a shard seam, because any two BSSs a flow touches are
	// forced onto one engine. The cost is lost parallelism: a single
	// cross-floor flow can collapse an otherwise partitionable
	// deployment to one group (Reason then says so). 0 when planning
	// was skipped or no flow bridged separate groups.
	FlowEdgeMerges int

	// Reason, when non-empty, says why a multi-shard request fell back
	// to single-engine execution.
	Reason string

	// NodesPerShard is each shard's node count — the balance the greedy
	// assignment achieved.
	NodesPerShard []int
}

// Plan returns the shard plan Prepare computed; the zero value before
// Prepare has run.
func (n *Network) Plan() ShardPlan { return n.plan }

// CheckFlowsCoSharded returns an error naming the first flow whose
// endpoints or their APs sit on different shards, or nil when none
// does. That invariant is what lets every engine run to the horizon
// unsynchronized: a relay or roam hand-off enqueues straight into
// another node's queue, which is safe only on the caller's own shard.
// Planning guarantees it (interactionGroups); tests assert it after
// Prepare.
func (n *Network) CheckFlowsCoSharded() error {
	if !n.prepared {
		return fmt.Errorf("netsim: CheckFlowsCoSharded before Prepare")
	}
	for i, f := range n.flows {
		nodes := []*Node{f.From, f.From.bss.AP}
		if f.To != nil {
			nodes = append(nodes, f.To, f.To.bss.AP)
		}
		for _, nd := range nodes {
			if nd.sh != f.From.sh {
				return fmt.Errorf("netsim: flow %d from %s spans shards %d and %d (node %s)",
					i, f.From.Name, f.From.sh.idx, nd.sh.idx, nd.Name)
			}
		}
	}
	return nil
}

// SetShardWorkers caps the goroutines a multi-shard Run may occupy (0
// means GOMAXPROCS, clamped to the shard count). Worker count never
// changes results — only wall-clock — so ScenarioRunner uses this to
// keep seeds × shards inside its Parallelism budget.
func (n *Network) SetShardWorkers(k int) { n.shardWorkers = k }

// channelsCouple reports whether two BSS primary channels can exchange
// energy: equality in the legacy 20 MHz model, and under 40 MHz
// bonding also direct neighbors, whose {c, c+1} spans share a slot.
// The shard planner's union-find merges on this predicate, so bonded
// partial overlap never crosses a shard seam.
func (n *Network) channelsCouple(ca, cb int) bool {
	if !n.bonded {
		return ca == cb
	}
	d := ca - cb
	if d < 0 {
		d = -d
	}
	return d <= 1
}

// interactRangeM is the distance beyond which two spectrally coupled
// nodes cannot influence each other's MAC state: the max of
// carrier-sense reach, NAV decode reach, and the farthest distance at
// which a transmission still arrives above noise −
// interferenceMarginDB. Like indexRanges, the budget folds in the
// deployment's most favorable shadowing draw, so no lucky pair reaches
// across a seam; bonding's fractional overlap only attenuates received
// power, so the unscaled range stays conservative for partially
// overlapping channels too. OBSS-PD spatial reuse needs no adjustment
// either, in both directions: raising the deferral threshold only
// SHRINKS the inter-BSS carrier-sense reach (while the interference
// term at noise − interferenceMarginDB, which dominates this max,
// already covers any frame that could perturb a victim's SINR), and
// the coupled TX-power backoff only reduces radiated power — so the
// full-power, legacy-CS figure computed here remains a superset of
// every range the mechanism can produce.
func (n *Network) interactRangeM() float64 {
	b := n.cfg.Budget
	gainDBm := b.TxPowerDBm + b.TxAntennaGain + b.RxAntennaGain - n.minShadowDB()
	r := maxDistForLoss(n.cfg.PathLoss, gainDBm-(n.noiseFloorDBm-interferenceMarginDB))
	if n.csRangeM > r {
		r = n.csRangeM
	}
	if n.navRangeM > r {
		r = n.navRangeM
	}
	return r
}

// minShadowDB is the most favorable (most negative) shadowing draw over
// every node pair, or 0 without shadowing — the widening both the
// spatial-index radii and the shard-planning radius apply to stay
// conservative per pair. build tracks it while drawing, so no matrix
// scan is needed and a static build keeps no shadowing matrix at all.
func (n *Network) minShadowDB() float64 { return n.shadowMin }

// interactionGroups partitions the BSS set into groups that cannot
// influence each other: union-find over BSS indices, merging on (a) any
// same-channel node pair within interactRangeM (a coupled pair under
// bonding; either way one inside a gain domain) — carrier sense, NAV
// adoption, and SINR-relevant interference are all confined to a
// channel — and (b) any flow connecting two BSSs (relay and downlink
// traffic must stay on one engine, so closed-loop transport feedback
// never crosses a shard seam; flowMerges counts how many otherwise
// distinct groups rule (b) collapsed — see ShardPlan.FlowEdgeMerges).
// Groups come back as sorted BSS index lists, ordered by their
// smallest member, so the partition is a pure function of the
// topology.
func (n *Network) interactionGroups() (out [][]int, flowMerges int) {
	uf := newUnionFind(make([]int, len(n.bss)))
	// Spectrally coupled channels always share a gain domain, so only
	// same-domain pairs can couple: walk each domain's member list.
	r := n.interactRangeM()
	for d := 0; d+1 < len(n.gainBounds); d++ {
		dom := n.gainMembers[n.gainBounds[d]:n.gainBounds[d+1]]
		for i, a := range dom {
			for _, b := range dom[i+1:] {
				if a.bss == b.bss || !n.channelsCouple(a.bss.Channel, b.bss.Channel) {
					continue
				}
				if uf.find(a.bss.idx) == uf.find(b.bss.idx) {
					continue
				}
				if dist(a, b) <= r {
					uf.union(a.bss.idx, b.bss.idx)
				}
			}
		}
	}
	for _, f := range n.flows {
		to := f.From.bss
		if f.To != nil {
			to = f.To.bss
		}
		if uf.find(f.From.bss.idx) != uf.find(to.idx) {
			flowMerges++
		}
		uf.union(f.From.bss.idx, to.idx)
	}
	groups := make(map[int][]int)
	roots := make([]int, 0)
	for i := range n.bss {
		rt := uf.find(i)
		if len(groups[rt]) == 0 {
			roots = append(roots, rt)
		}
		groups[rt] = append(groups[rt], i)
	}
	sort.Ints(roots)
	out = make([][]int, 0, len(roots))
	for _, rt := range roots {
		out = append(out, groups[rt])
	}
	return out, flowMerges
}

// unionFind is a disjoint-set forest over 0..len-1 in which every set's
// root is its smallest member, so a partition read off it does not
// depend on the order of the unions.
type unionFind []int

// newUnionFind makes every element of parent its own set.
func newUnionFind(parent []int) unionFind {
	for i := range parent {
		parent[i] = i
	}
	return parent
}

func (u unionFind) find(x int) int {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

func (u unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if rb < ra {
		ra, rb = rb, ra
	}
	u[rb] = ra
}

// balanceGroups assigns whole interaction groups to k shards, heaviest
// group first onto the least-loaded shard (weight = node count). Ties
// break toward earlier groups and lower shard indices, so the
// assignment is deterministic. Returns shard index per BSS.
func balanceGroups(groups [][]int, bssNodes []int, k int) []int {
	type wg struct{ idx, weight int }
	ws := make([]wg, len(groups))
	for i, grp := range groups {
		w := 0
		for _, b := range grp {
			w += bssNodes[b]
		}
		ws[i] = wg{i, w}
	}
	sort.SliceStable(ws, func(a, b int) bool { return ws[a].weight > ws[b].weight })
	load := make([]int, k)
	out := make([]int, len(bssNodes))
	for _, g := range ws {
		best := 0
		for s := 1; s < k; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		load[best] += g.weight
		for _, b := range groups[g.idx] {
			out[b] = best
		}
	}
	return out
}

// planShards decides the partition and creates the shards, assigning
// every node to one. Called from build after the gains and index
// ranges are final (the planning radius depends on the shadowing
// draws) and before media are created. The single-shard path — whether
// requested or fallen back to — hands shard 0 the Network's own
// rng.Source and attached probe, keeping it bit-identical to the
// pre-shard simulator; a multi-shard run splits one deterministic
// child stream per shard in shard order.
func (n *Network) planShards() {
	req := n.cfg.Shards
	if req < 1 {
		req = 1
	}
	plan := ShardPlan{Requested: req, Shards: 1, Groups: 1}
	var assign []int
	if req > 1 {
		switch {
		case n.cfg.RoamIntervalUs > 0:
			plan.Reason = "mobility couples every shard (roam scans read and move global state)"
		case n.cfg.SampleIntervalUs > 0:
			plan.Reason = "the telemetry sampler reads cross-shard state each tick"
		case n.probe != nil:
			plan.Reason = "a single attached Probe cannot observe concurrent shards (use AttachShardProbes)"
		default:
			groups, flowMerges := n.interactionGroups()
			plan.Groups = len(groups)
			plan.FlowEdgeMerges = flowMerges
			if len(groups) < 2 {
				plan.Reason = "floor is one coupled interaction group"
			} else {
				k := req
				if k > len(groups) {
					k = len(groups)
				}
				plan.Shards = k
				bssNodes := make([]int, len(n.bss))
				for _, nd := range n.nodes {
					bssNodes[nd.bss.idx]++
				}
				assign = balanceGroups(groups, bssNodes, k)
			}
		}
	}
	n.shards = make([]*shard, plan.Shards)
	for i := range n.shards {
		n.shards[i] = newShard(n, i)
	}
	if plan.Shards == 1 {
		n.shards[0].src = n.src
		n.shards[0].probe = n.probe
		if n.probeFactory != nil && n.probe == nil {
			n.shards[0].probe = n.probeFactory(0)
		}
		for _, nd := range n.nodes {
			nd.sh = n.shards[0]
		}
	} else {
		for _, sh := range n.shards {
			sh.src = n.src.Split()
			if n.probeFactory != nil {
				sh.probe = n.probeFactory(sh.idx)
			}
		}
		for _, nd := range n.nodes {
			nd.sh = n.shards[assign[nd.bss.idx]]
		}
	}
	plan.NodesPerShard = make([]int, plan.Shards)
	for _, nd := range n.nodes {
		plan.NodesPerShard[nd.sh.idx]++
	}
	n.plan = plan
}
