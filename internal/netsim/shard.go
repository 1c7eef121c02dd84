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
// A shard is one interaction group's execution unit — its own
// sim.Engine, its own rng.Source stream, its own media, and its own run
// counters. While sim.RunAll drives the engines, a shard's events may
// touch only state owned by that shard plus the Network's frozen build
// products (config, gain rows, node positions); everything mutable in
// the MAC hot path hangs off the shard a node belongs to.
//
// Partitioning is by interaction group, not by raw grid cell: two BSSs
// interact when any of their nodes share a channel within carrier
// sense, NAV decode, or meaningful-interference range, or when a flow
// connects them (interactionGroups). A multi-shard plan gives every
// group its own shard, so nothing ever crosses a seam: no frame reaches
// another shard's media, and every flow's endpoints and their APs share
// one shard. Config.Shards counts partitions (lanes): balanceGroups
// assigns whole groups to them, and each lane's goroutine runs its
// groups' engines back to back, heaviest group first, each straight to
// the horizon with no synchronization. Only mobility, whose roam scan
// reads and moves state across the floor, forces one engine
// (planShards). Observers never change the plan: each shard carries
// its own telemetry sampler (sampler.go), and a plain Probe attached
// with AttachProbe sees the lanes one after another, since Run then
// drives them all on one goroutine.
//
// Determinism: each group's event order is a function of its own
// engine and RNG stream only, and the streams are split one per group
// in a fixed order, so the partition decides only where and when a
// group runs, never what it draws. Every Shards: N ≥ 2 on a floor of
// several groups therefore gives one result, bit for bit, independent
// of N, the worker count and goroutine scheduling. With
// one shard the planner hands it the Network's own rng.Source
// un-split, so Shards: 0/1 runs are bit-identical to the pre-shard
// simulator (the compat goldens pin this); they differ from the split
// plans' draws, so the two agree only statistically.

// interferenceMarginDB is how far below the noise floor a foreign
// transmission must arrive before the planner may ignore it: energy at
// noise − 30 dB shifts any SINR by < 0.005 dB, beneath every PER
// curve's resolution.
const interferenceMarginDB = 30

// shard is one interaction group's execution unit (the whole floor
// on a single engine): an engine, a deterministic RNG stream, the
// group's media, and the run-counter half of what collect aggregates
// into a Result. lane is the partition whose goroutine runs it.
type shard struct {
	net  *Network
	idx  int
	lane int

	eng     sim.Engine
	src     *rng.Source
	probe   Probe
	media   []*medium
	sampler *sampler // nil unless Config.SampleIntervalUs is set

	// modeCache memoizes per-link rate selection within the shard; link
	// SNR only changes when a node moves, which clears it
	// (gainState.refresh; mobility forces single-shard, so the clear
	// never races).
	modeCache map[[2]int]linkmodel.Mode

	// Run counters, mirrored from the pre-shard Network fields; collect
	// sums them across shards in shard order.
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
	frameStarts           int
	crossings             int
	csCandidates          int
	csJudged              int

	// frames recycles the shard's transmission and packet records
	// (framepool.go). okScratch and pktScratch are the Block-ACK path's
	// reusable bitmap and packet list (completeAmpdu, applyBlockAck,
	// failAmpduRts); none of those re-enters another.
	frames     framePool
	okScratch  []bool
	pktScratch []*packet
}

func newShard(n *Network, idx, lane int) *shard {
	sh := &shard{net: n, idx: idx, lane: lane,
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
// groups using the same key are beyond interaction range by
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
	if !n.oracle.disableSpatialIndex {
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
	// the count of partitions actually running, after clamping to the
	// number of interaction groups or falling back to 1.
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

	// NodesPerShard is each partition's node count — the balance the
	// greedy assignment achieved — and GroupsPerShard the interaction
	// groups it runs back to back (1 each on a single engine).
	NodesPerShard  []int
	GroupsPerShard []int
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
				return fmt.Errorf("netsim: flow %d from %s spans interaction groups %d and %d (node %s)",
					i, f.From.Name, f.From.sh.idx, nd.sh.idx, nd.Name)
			}
		}
	}
	return nil
}

// SetWorkers caps the goroutines every pass of the Network that fans
// out may occupy: the gain fill and the roam-tick gain refresh (at
// most 8 stripes, and one below 256 nodes; see gainState.stripes) and a
// multi-shard Run (at most one per partition). 0 means GOMAXPROCS. Set it
// before Prepare or Run, which build the gains. Worker count never
// changes results — only wall-clock — so ScenarioRunner uses this to
// keep jobs × per-job workers inside its Parallelism budget.
func (n *Network) SetWorkers(k int) { n.workers = k }

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
// interferenceMarginDB. Like indexRanges, it starts from the link
// budget and inverts the path-loss curve the gains are computed from;
// bonding's fractional overlap only attenuates received power, so the
// unscaled range stays conservative for partially overlapping channels
// too. OBSS-PD spatial reuse needs no adjustment
// either, in both directions: raising the deferral threshold only
// SHRINKS the inter-BSS carrier-sense reach (while the interference
// term at noise − interferenceMarginDB, which dominates this max,
// already covers any frame that could perturb a victim's SINR), and
// the coupled TX-power backoff only reduces radiated power — so the
// full-power, legacy-CS figure computed here remains a superset of
// every range the mechanism can produce.
func (n *Network) interactRangeM() float64 {
	r := maxDistForLoss(n.cfg.PathLoss, n.cfg.Budget.BudgetDBm()-(n.noiseFloorDBm-interferenceMarginDB))
	return max(r, n.csRangeM, n.navRangeM)
}

// interactionGroups partitions the BSS set into groups that cannot
// influence each other: union-find over BSS indices, merging on (a) any
// same-channel node pair within interactRangeM (a coupled pair under
// bonding; either way one inside a gain domain) — carrier sense, NAV
// adoption, and SINR-relevant interference are all confined to a
// channel — and (b) any flow connecting two BSSs (relay and downlink
// traffic must stay on one engine, so closed-loop transport feedback
// never crosses a shard seam; flowMerges counts how many otherwise
// distinct groups rule (b) collapsed — see ShardPlan.FlowEdgeMerges).
// Groups come back as BSS lists in index order, ordered by their
// smallest member (unionFind.number), so the partition is a pure
// function of the topology.
func (n *Network) interactionGroups() (out [][]*BSS, flowMerges int) {
	uf := newUnionFind(make([]int, len(n.bss)))
	// Spectrally coupled channels always share a gain domain, so only
	// same-domain pairs can couple: walk each domain's member list.
	r := n.interactRangeM()
	for d := range n.gains.domains() {
		dom := n.gains.domain(d)
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
	group := make([]int, len(n.bss))
	out = make([][]*BSS, uf.number(group))
	for i, g := range group {
		out[g] = append(out[g], n.bss[i])
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

// number writes each element's set number into set and returns the
// number of sets. Sets are numbered in the order of their smallest
// member, which is their root, so a root is numbered before the rest
// of its set.
func (u unionFind) number(set []int) (sets int) {
	for i := range u {
		if r := u.find(i); r == i {
			set[i] = sets
			sets++
		} else {
			set[i] = set[r]
		}
	}
	return sets
}

// balanceGroups orders the interaction groups heaviest first (weight =
// node count; stable on group index) and assigns each, in that order,
// to the least-loaded of k lanes, ties toward the lower lane. It
// returns the order and each ordered group's lane, so both are
// deterministic. With k equal to the group count, group i of the order
// runs alone on lane i.
func balanceGroups(groups [][]*BSS, bssNodes []int, k int) (order, lane []int) {
	weight := make([]int, len(groups))
	order = make([]int, len(groups))
	for i, grp := range groups {
		for _, b := range grp {
			weight[i] += bssNodes[b.idx]
		}
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weight[order[a]] > weight[order[b]] })
	load := make([]int, k)
	lane = make([]int, len(groups))
	for i, g := range order {
		best := 0
		for s := 1; s < k; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		load[best] += weight[g]
		lane[i] = best
	}
	return order, lane
}

// planShards decides the partition and creates the shards, assigning
// every node to one. Called from build after the gains and index
// ranges are final (the planning radius builds on the index ranges)
// and before media are created. It makes one shard per
// interaction group, in balanceGroups' heaviest-first order. Only
// mobility and a floor that forms one coupled group fall back to one
// engine; the plan never depends on who observes the run. Every shard
// gets the plain probe attached with AttachProbe, if any, and
// otherwise its lane's AttachShardProbes probe. A single engine,
// whether requested or fallen back to, is the one-group case: its
// group is every BSS, and it keeps the Network's own rng.Source, so it
// is bit-identical to the pre-shard simulator. A multi-shard plan
// splits each group its own child stream in that order (the
// multi-shard compat goldens pin it).
func (n *Network) planShards() {
	req := max(n.cfg.Shards, 1)
	plan := ShardPlan{Requested: req, Shards: 1}
	groups := [][]*BSS{n.bss}
	if req > 1 {
		if n.cfg.RoamIntervalUs > 0 {
			plan.Reason = "mobility couples every shard (roam scans read and move global state)"
		} else if groups, plan.FlowEdgeMerges = n.interactionGroups(); len(groups) < 2 {
			plan.Reason = "floor is one coupled interaction group"
		} else {
			plan.Shards = min(req, len(groups))
		}
	}
	plan.Groups = len(groups)
	k := plan.Shards
	order, lane := []int{0}, []int{0}
	if k > 1 {
		bssNodes := make([]int, len(n.bss))
		for _, nd := range n.nodes {
			bssNodes[nd.bss.idx]++
		}
		order, lane = balanceGroups(groups, bssNodes, k)
	}
	var probes []Probe
	if n.probe == nil && n.probeFactory != nil {
		probes = make([]Probe, k)
		for l := range probes {
			probes[l] = n.probeFactory(l)
		}
	}
	// The two per-lane counts share one array: every build pays for it.
	counts := make([]int, 2*k)
	plan.NodesPerShard, plan.GroupsPerShard = counts[:k:k], counts[k:]
	n.shards = make([]*shard, len(order))
	n.lanes = make([][]*sim.Engine, k)
	for i, g := range order {
		sh := newShard(n, i, lane[i])
		sh.src, sh.probe = n.src, n.probe
		if k > 1 {
			sh.src = n.src.Split()
		}
		if probes != nil {
			sh.probe = probes[sh.lane]
		}
		n.shards[i] = sh
		plan.GroupsPerShard[sh.lane]++
		n.lanes[sh.lane] = append(n.lanes[sh.lane], &sh.eng)
		for _, b := range groups[g] {
			b.AP.sh = sh
		}
	}
	// A station runs on its BSS's shard, which its AP holds.
	for _, nd := range n.nodes {
		nd.sh = nd.bss.AP.sh
		plan.NodesPerShard[nd.sh.lane]++
	}
	n.plan = plan
}
