package netsim

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/linkmodel"
)

// TestGainStateOracle pins the build's gain state against brute force.
// A static build lays the gains out as one domain per channel (per
// bonded component); a build with mobility is one domain, one n×n
// matrix, every pair of it computed. Every gain the static build
// computes must equal the mobile build's bit for bit, every pair it
// skips must be one the static rule lets it skip (skipFault), each
// build's Result.GainFillPairs must count the pairs it computed, each
// build's byte count must be its domains' rows, and re-deriving every
// pair from the positions (a refresh with every node listed as moved,
// none having moved) must change nothing. At −62 dBm carrier sense the
// reuse floor skips most of its pairs; the same floor with RTS/CTS on,
// on which every station sends and so receives a CTS, computes every
// pair.
// The 320-node case is above the fill's and the refresh's 256-node
// cutover, so under -race it checks that the striped fill workers'
// upper-cell writes never race another worker's lower-triangle
// mirrors, and that the striped refresh workers share no cell. (The
// case names record the shadowing the floors were once built with;
// the geometry is unchanged.)
func TestGainStateOracle(t *testing.T) {
	bonded := HtConfig(2, 40)
	obss := DefaultConfig()
	obss.ObssPdThresholdDBm = -72
	reuse := DefaultConfig()
	reuse.CSThresholdDBm = -62
	cases := []struct {
		name    string
		cfg     Config
		domains int
		floor   func(cfg Config) func(seed int64) *Network
	}{
		{"large-floor-shadowed", DefaultConfig(), 3, func(cfg Config) func(int64) *Network {
			return LargeFloor(cfg, 16, 19, 4, 1, 6, 11) // 320 nodes
		}},
		{"bonded-40mhz", bonded, 3, func(cfg Config) func(int64) *Network {
			return LargeFloor(cfg, 9, 4, 3, 1, 5, 9)
		}},
		{"obss-pd", obss, 1, func(cfg Config) func(int64) *Network {
			return LargeFloor(cfg, 16, 4, 4, 1)
		}},
		{"reuse", reuse, 1, func(cfg Config) func(int64) *Network {
			return LargeFloor(cfg, 16, 4, 4, 1)
		}},
		{"rts", rtsEvery(reuse), 1, func(cfg Config) func(int64) *Network {
			return LargeFloor(cfg, 16, 4, 4, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			static := tc.floor(tc.cfg)(5)
			static.build()
			mobileCfg := tc.cfg
			mobileCfg.RoamIntervalUs = 100000
			mobile := tc.floor(mobileCfg)(5)
			mobile.build()

			nn := len(static.nodes)
			if got := static.gains.domains(); got != tc.domains {
				t.Fatalf("static build has %d gain domains, want %d", got, tc.domains)
			}
			if got := mobile.gains.domains(); got != 1 {
				t.Fatalf("mobile build has %d gain domains, want 1", got)
			}
			assertGainLayout(t, static)
			assertGainLayout(t, mobile)
			for name, n := range map[string]*Network{"static": static, "mobile": mobile} {
				if d := asymmetricGain(n); d != "" {
					t.Fatalf("%s build: %s", name, d)
				}
			}
			computed := assertSameGains(t, static, mobile)
			if got := static.gains.fillPairs; got != computed {
				t.Fatalf("static build counts %d computed pairs, its rows hold %d", got, computed)
			}
			if got, want := mobile.gains.fillPairs, nn*(nn-1)/2; got != want {
				t.Fatalf("mobile build counts %d computed pairs, want all %d", got, want)
			}
			if all := domainPairs(static); tc.name == "rts" && computed != all {
				t.Fatalf("RTS floor computed %d of its %d pairs, want all", computed, all)
			}
			t.Logf("static build computed %d of %d pairs", computed, domainPairs(static))

			var want int64
			for d := range tc.domains {
				k := int64(len(static.gains.domain(d)))
				want += k*k*8 + k*24
			}
			if got := static.gains.bytes(); got != want {
				t.Fatalf("static gain bytes = %d, want the domains' rows = %d", got, want)
			}
			if got, want := mobile.gains.bytes(), int64(nn*nn*8+nn*24); got != want {
				t.Fatalf("mobile gain bytes = %d, want one n×n matrix = %d", got, want)
			}

			want2 := gainMatrix(mobile)
			mobile.gains.refresh(mobile.nodes)
			assertBitIdentical(t, "refreshed gains", want2, gainMatrix(mobile))
			if d := asymmetricGain(mobile); d != "" {
				t.Fatalf("refreshed gains: %s", d)
			}
		})
	}
	if r := SingleLink(DefaultConfig(), 10, 500)(1).Run(1e4); r.GainBytes != 2*2*8+2*24 || r.GainFillPairs != 1 {
		t.Fatalf("Result.GainBytes = %d, GainFillPairs = %d for a 2-node static run, want %d and 1",
			r.GainBytes, r.GainFillPairs, 2*2*8+2*24)
	}

	// The two large floors, laid out only (the byte count reads the
	// layout):
	// the one-channel E27 floor is one 4,100-node domain, and the
	// 8-channel city floor is 8 domains of 512 nodes.
	cfg := DefaultConfig()
	cfg.CSThresholdDBm = -62
	for _, fl := range []struct {
		name    string
		n       *Network
		domains int
		bytes   int64
	}{
		{"e27", LargeFloor(cfg, 100, 40, 10, 1)(1), 1, 134_578_400},
		{"city", LargeFloor(cfg, 1024, 3, 32, 1, 6, 11, 36, 40, 44, 48, 52)(1), 8, 16_875_520},
	} {
		fl.n.gains.layout()
		if got := fl.n.gains.domains(); got != fl.domains {
			t.Fatalf("%s floor has %d gain domains, want %d", fl.name, got, fl.domains)
		}
		if got := fl.n.gains.bytes(); got != fl.bytes {
			t.Fatalf("%s floor gain bytes = %d, want %d", fl.name, got, fl.bytes)
		}
	}
}

// TestGainMatrixBlocks: rows are carved domain by domain into backing
// arrays of whole rows, each within gainBlockBytes (or one row, when a
// row alone is larger) and shared across domains; a new block starts
// only when the next row does not fit the current one. Every row is a
// capacity-capped view of its domain's size, laid end to end with the
// row before it inside a block.
func TestGainMatrixBlocks(t *testing.T) {
	const blockCells = gainBlockBytes / 8
	for _, tc := range []struct {
		name   string
		sizes  []int
		blocks int
	}{
		// 8,800 B rows: 476 rows per 4 MB block, 3 blocks.
		{"one-domain-1100", []int{1100}, 3},
		// The city floor: 1,024 rows of 512 cells per block, two
		// domains to a block.
		{"eight-domains-512", []int{512, 512, 512, 512, 512, 512, 512, 512}, 4},
		// Domains that straddle blocks, and rows of different widths
		// sharing one.
		{"mixed", []int{700, 3, 1100, 40, 1}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bounds := []int{0}
			for _, k := range tc.sizes {
				bounds = append(bounds, bounds[len(bounds)-1]+k)
			}
			rows := make([][]float64, bounds[len(bounds)-1])
			gainRows(bounds, func(r int, row []float64) { rows[r] = row })
			// Count blocks by the packing rule; a row that fits the
			// current block must sit right after the row before it.
			blocks, used := 0, 0
			for d, k := range tc.sizes {
				for r := bounds[d]; r < bounds[d+1]; r++ {
					row := rows[r]
					if len(row) != k || cap(row) != k {
						t.Fatalf("row %d has len %d cap %d, want %d", r, len(row), cap(row), k)
					}
					if blocks == 0 || used+k > blockCells {
						blocks, used = blocks+1, 0
					} else if prev := rows[r-1]; unsafe.Pointer(&row[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), 8*len(prev)) {
						t.Fatalf("row %d fits block %d (%d + %d cells) but does not follow row %d", r, blocks, used, k, r-1)
					}
					used += k
				}
			}
			if blocks != tc.blocks {
				t.Fatalf("%d blocks, want %d", blocks, tc.blocks)
			}
			if a := testing.AllocsPerRun(2, func() { gainRows(bounds, func(int, []float64) {}) }); int(a) != tc.blocks {
				t.Fatalf("gainRows made %v allocations, want one per block = %d", a, tc.blocks)
			}
		})
	}
}

// gainDomainOf returns each node's gain domain index, by node id.
func gainDomainOf(n *Network) []int {
	dom := make([]int, len(n.nodes))
	for d := range n.gains.domains() {
		for _, nd := range n.gains.domain(d) {
			dom[nd.id] = d
		}
	}
	return dom
}

// assertGainLayout checks the built gain domains: every node listed
// once, in id order within its domain at index gi, with a row of its
// domain's size, and nodes that share a BSS or a channel key (the
// channel, or its bonded component) in one domain.
func assertGainLayout(t *testing.T, n *Network) {
	t.Helper()
	seen := make([]bool, len(n.nodes))
	members := 0
	for d := range n.gains.domains() {
		dom := n.gains.domain(d)
		members += len(dom)
		for i, nd := range dom {
			if seen[nd.id] {
				t.Fatalf("node %d listed twice", nd.id)
			}
			seen[nd.id] = true
			if nd.gi != i || (i > 0 && dom[i-1].id >= nd.id) {
				t.Fatalf("domain %d: node %d at index %d has gi %d", d, nd.id, i, nd.gi)
			}
			if len(nd.gain) != len(dom) || cap(nd.gain) != len(dom) {
				t.Fatalf("node %d row has len %d cap %d, want its domain's %d", nd.id, len(nd.gain), cap(nd.gain), len(dom))
			}
		}
	}
	if members != len(n.nodes) {
		t.Fatalf("gain domains list %d members for %d nodes", members, len(n.nodes))
	}
	key := func(nd *Node) int {
		if n.bonded {
			return n.chanRoot[nd.bss.Channel]
		}
		return nd.bss.Channel
	}
	dom := gainDomainOf(n)
	for _, x := range n.nodes {
		for _, y := range n.nodes {
			if (x.bss == y.bss || key(x) == key(y)) && dom[x.id] != dom[y.id] {
				t.Fatalf("nodes %d and %d share a BSS or channel but not a gain domain", x.id, y.id)
			}
		}
	}
}

// assertSameGains checks that every gain n computes, both cells of
// every same-domain pair, holds the bits the one-domain build one
// holds, and that every pair it skips is one it may skip (skipFault,
// with one's gain as the pair's power). It returns how many pairs n
// computed.
func assertSameGains(t *testing.T, n, one *Network) (computed int) {
	t.Helper()
	dom := gainDomainOf(n)
	rcv := frameReceivers(n)
	for i, a := range n.nodes {
		for j := i + 1; j < len(n.nodes); j++ {
			if dom[i] != dom[j] {
				continue
			}
			b := n.nodes[j]
			want := one.nodes[i].gain[j]
			ab, ba := a.gain[b.gi], b.gain[a.gi]
			if math.Float64bits(ab) == math.Float64bits(want) && math.Float64bits(ba) == math.Float64bits(want) {
				computed++
				continue
			}
			if f := skipFault(n, rcv, a, b, want); f != "" {
				t.Fatalf("pair %d-%d holds %v and %v, the one-domain build %v: %s", i, j, ab, ba, want, f)
			}
		}
	}
	return computed
}

// domainPairs is the number of same-domain pairs of n's gain layout,
// k(k−1)/2 summed over its domains of k.
func domainPairs(n *Network) int {
	all := 0
	for d := range n.gains.domains() {
		k := len(n.gains.domain(d))
		all += k * (k - 1) / 2
	}
	return all
}

// frameReceivers marks, by node id, the nodes a frame of n's run can
// be addressed to: every AP, every flow's To and, with RTS/CTS on,
// every flow's From, which the CTS answers.
func frameReceivers(n *Network) []bool {
	rcv := make([]bool, len(n.nodes))
	for _, nd := range n.nodes {
		rcv[nd.id] = nd.ap
	}
	for _, f := range n.flows {
		if f.To != nil {
			rcv[f.To.id] = true
		}
		if n.cfg.RtsThresholdBytes > 0 {
			rcv[f.From.id] = true
		}
	}
	return rcv
}

// skipFault describes why the built network n may not have skipped the
// pair a–o, whose received power a full fill gives as wantMw ("" when
// it may). A skipped pair holds 0 in both cells, is in a static build,
// has no frame receiver in it (rcv, from frameReceivers), so no run
// reads its value, and its power is quiet under every threshold test a
// run makes on it: below the carrier-sense threshold and, with RTS/CTS
// on, below the NAV-decode one. The OBSS-PD backoff and the bonded
// half-slot penalty only lower a power, so a quiet one stays quiet, and
// the stored 0 takes every branch wantMw takes.
func skipFault(n *Network, rcv []bool, a, o *Node, wantMw float64) string {
	switch {
	case math.Float64bits(a.gain[o.gi]) != 0 || math.Float64bits(o.gain[a.gi]) != 0:
		return "the pair holds neither the full fill's power nor a skipped 0"
	case n.cfg.RoamIntervalUs > 0:
		return "a mobile build skipped it"
	case rcv[a.id] || rcv[o.id]:
		return "skipped, but a frame can be addressed to one of its nodes"
	case !(wantMw < n.csMw):
		return fmt.Sprintf("skipped, but its power %v mW reaches the carrier-sense threshold %v mW", wantMw, n.csMw)
	case n.cfg.RtsThresholdBytes > 0 && !(wantMw < n.navMw):
		return fmt.Sprintf("skipped under RTS/CTS, but its power %v mW reaches NAV decode at %v mW", wantMw, n.navMw)
	}
	return ""
}

// asymmetricGain describes the first same-domain pair of n whose two
// cells, a.gain[b.gi] and b.gain[a.gi], differ in any bit ("" when
// none). medium.start reads a pair's power from either cell (the
// crossing into a new frame reads its receiver's row), so both must
// hold the same bits, NaN poisoning included.
func asymmetricGain(n *Network) string {
	dom := gainDomainOf(n)
	for i, a := range n.nodes {
		for j := i + 1; j < len(n.nodes); j++ {
			b := n.nodes[j]
			if dom[i] == dom[j] && math.Float64bits(a.gain[b.gi]) != math.Float64bits(b.gain[a.gi]) {
				return fmt.Sprintf("pair %d-%d holds %v one way and %v the other", i, j, a.gain[b.gi], b.gain[a.gi])
			}
		}
	}
	return ""
}

// gainMatrix copies a one-domain network's gain rows, indexed by id.
func gainMatrix(n *Network) [][]float64 {
	out := make([][]float64, len(n.nodes))
	for i, nd := range n.nodes {
		out[i] = append([]float64(nil), nd.gain...)
	}
	return out
}

func assertBitIdentical(t *testing.T, name string, want, got [][]float64) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(want[i][j]) != math.Float64bits(got[i][j]) {
				t.Fatalf("%s[%d][%d] = %v, want %v", name, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// halfSlotDB is 10·log10(1/2): the half-slot penalty in the dB form of
// the carrier-sense rule, where hears halves the power in mW.
const halfSlotDB = -3.0102999566398121

// TestMilliwattRulesMatchDecibelRules pins the milliwatt gain rows
// against the dB arithmetic they replaced. Each node's row of its gain
// domain is the only gain state, and each per-frame decision compares
// it against a threshold New converts to mW once. The two rules can round apart only at an exact
// tie, and this test proves that no verdict moves. For every floor — each
// harness input (diffGroups) and the E27 floor — it
// recomputes each pair's received power p in dBm as the fill does and
// asserts for every pair in one gain domain (the pairs a run can
// read):
//   - both cells of the pair hold mwFromDBm(p) bit for bit, or the
//     static build skipped the pair (skipFault): then both hold 0, and
//     p gets the verdict 0 gets under every rule a run tests the pair
//     at, carrier sense and the OBSS-PD window with and without the
//     backoff and the half-slot penalty, and NAV decode with RTS/CTS
//     on;
//   - the mW and dB rules agree on the carrier-sense threshold and the
//     OBSS-PD window, with and without the TX-power backoff, with the
//     half-slot penalty on bonded floors, and on NAV decode;
//   - the dBm readback (rxPowerDBm) picks the same linkMode BestMode
//     as p, and the roam scan's hysteresis test and the AP it settles
//     on come out the same on the readback as on p, over the APs in
//     the station's domain (all of them under mobility, the only
//     build that roams).
func TestMilliwattRulesMatchDecibelRules(t *testing.T) {
	var floors []diffInput
	for _, g := range diffGroups() {
		floors = append(floors, g.inputs...)
	}
	if !testing.Short() {
		floors = append(floors, diffInput{name: "e27-large-floor", build: func(o oracles) *Network {
			cfg := DefaultConfig()
			cfg.CSThresholdDBm = -62
			return withOracles(LargeFloor(cfg, 100, 40, 10, 1)(1), o) // 4,100 nodes
		}})
	}
	for _, fl := range floors {
		n := fl.build(oracles{})
		n.build()
		if d := mismatchedRules(n); d != "" {
			t.Errorf("%s: %s", fl.name, d)
		}
	}
}

// mismatchedRules checks every pair of the built network n and
// describes the first pair whose stored power or any rule verdict
// differs between mW and dB ("" when none).
func mismatchedRules(n *Network) string {
	cfg, b := n.cfg, n.cfg.Budget
	nodes := n.nodes
	pDBm := func(i, j int) float64 {
		i, j = min(i, j), max(i, j)
		loss := cfg.PathLoss.LossDB(dist(nodes[i], nodes[j]))
		return b.TxPowerDBm + b.TxAntennaGain + b.RxAntennaGain - loss
	}
	type scale struct{ db, mw float64 }
	backoffs := []scale{{0, 1}}
	obssPdDBm := math.Inf(-1)
	if n.obssOn {
		obssPdDBm = cfg.ObssPdThresholdDBm
		backoffs = append(backoffs, scale{cfg.CSThresholdDBm - cfg.ObssPdThresholdDBm, n.obssScaleMw})
	}
	need := n.robustMode().SnrReqDB
	dom := gainDomainOf(n)
	rcv := frameReceivers(n)
	for i, a := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if dom[i] != dom[j] {
				continue
			}
			b := nodes[j]
			p := pDBm(i, j)
			mw := mwFromDBm(p)
			if math.Float64bits(a.gain[b.gi]) != math.Float64bits(mw) ||
				math.Float64bits(b.gain[a.gi]) != math.Float64bits(mw) {
				if f := skipFault(n, rcv, a, b, mw); f != "" {
					return fmt.Sprintf("pair %d-%d holds %v and %v, want mwFromDBm(%v) = %v: %s",
						i, j, a.gain[b.gi], b.gain[a.gi], p, mw, f)
				}
				// The stored 0 is quiet under every rule and decodes
				// nothing; p must be, under the dB rules.
				for _, bo := range backoffs {
					if p+bo.db >= cfg.CSThresholdDBm {
						return fmt.Sprintf("skipped pair %d-%d at %v dBm (backoff %v dB) reaches carrier sense in dB", i, j, p, bo.db)
					}
					if cfg.RtsThresholdBytes > 0 && p-n.noiseFloorDBm+bo.db >= need {
						return fmt.Sprintf("skipped pair %d-%d at %v dBm (backoff %v dB) decodes a NAV in dB", i, j, p, bo.db)
					}
				}
				continue
			}
			for _, bo := range backoffs {
				for half := range 2 {
					if half == 1 && !n.bonded {
						break
					}
					q, m := p+bo.db, mw*bo.mw
					if half == 1 {
						q += halfSlotDB
						m *= 0.5
					}
					if (q < cfg.CSThresholdDBm) != (m < n.csMw) || (q < obssPdDBm) != (m < n.obssPdMw) {
						return fmt.Sprintf("pair %d-%d at %v dBm (backoff %v dB, half slot %v): carrier sense or OBSS-PD differs in mW",
							i, j, p, bo.db, half == 1)
					}
				}
				if (p-n.noiseFloorDBm+bo.db >= need) != (mw*bo.mw >= n.navMw) {
					return fmt.Sprintf("pair %d-%d at %v dBm (backoff %v dB): NAV decode differs in mW", i, j, p, bo.db)
				}
			}
			if rb := n.rxPowerDBm(nodes[i], nodes[j]); rb != p {
				// linkMode's choice, without filling its cache.
				got, _ := linkmodel.BestMode(cfg.Modes, n.linkSNRdB(nodes[i], nodes[j]), false, 0.1)
				if want, _ := linkmodel.BestMode(cfg.Modes, p-n.noiseFloorDBm, false, 0.1); got != want {
					return fmt.Sprintf("pair %d-%d at %v dBm (readback %v): linkMode %s, dB rule %s",
						i, j, p, rb, got.Name, want.Name)
				}
			}
		}
	}
	// The roam scan leaves a station's current AP only for one that
	// beats it by the hysteresis margin, and takes the strongest such
	// AP (the first in BSS order on a tie). From every possible current
	// AP, the hysteresis test against each candidate and the AP the
	// scan settles on must be the same on the readback as on p. A
	// candidate pair's order alone may flip — two far APs a few ulps
	// apart in dBm can read back equal — but only the winner acts.
	hyst := roamHysteresisDB
	scan := func(pw []float64, cur int) int {
		best, bestP := cur, pw[cur]
		for k, pk := range pw {
			if pk > pw[cur]+hyst && pk > bestP {
				best, bestP = k, pk
			}
		}
		return best
	}
	var aps []int
	var p, rb []float64
	for _, nd := range nodes {
		if nd.ap {
			continue
		}
		aps, p, rb = aps[:0], p[:0], rb[:0]
		for _, bss := range n.bss {
			if a := bss.AP.id; dom[a] == dom[nd.id] {
				aps = append(aps, a)
				p, rb = append(p, pDBm(a, nd.id)), append(rb, n.rxPowerDBm(nodes[a], nd))
			}
		}
		for c := range aps {
			for k := range aps {
				if (p[k] > p[c]+hyst) != (rb[k] > rb[c]+hyst) {
					return fmt.Sprintf("station %d: hysteresis test of AP %d against AP %d differs on the readback (%v vs %v dBm)",
						nd.id, aps[k], aps[c], p[k], p[c])
				}
			}
			if got, want := scan(rb, c), scan(p, c); got != want {
				return fmt.Sprintf("station %d on AP %d: the roam scan picks AP %d on the readback, AP %d on p",
					nd.id, aps[c], aps[got], aps[want])
			}
		}
	}
	return ""
}

// TestMobileRefreshMatchesRecompute pins the roam tick's gain refresh,
// which moves every node first and then recomputes each readable pair
// with a moved node once (gainState.readable), plus the row of each
// station that then changes medium (refreshRow), against a recompute
// of every readable cell from the final positions (staleGain), on the
// poisoned run of every mobile input: the six roaming rows, the two
// mobile compat presets and the 272-node walker floor, whose striped
// refresh the race detector then covers.
// That run's Result.GainRefreshPairs must equal its closed form, both
// cells of every pair must hold the same bits after each tick
// (countPairs), and below the 256-node cutover a refresh allocates
// nothing. A static run reports no refreshed pairs.
func TestMobileRefreshMatchesRecompute(t *testing.T) {
	rows := 0
	for _, sc := range equivScenarios() {
		if strings.HasPrefix(sc.name, "roaming-") {
			rows++
		}
	}
	if rows != 6 {
		t.Fatalf("%d roaming equivalence rows, want six", rows)
	}
	reps, all := eachReport(t, recomputeCheck)
	var rowCells, offAirTicks int
	for _, r := range reps {
		rowCells += r.counted.rowCells
		offAirTicks += r.counted.offAirTicks
	}
	// The cases the rule adds to same-medium and AP pairs must occur.
	if all && (rowCells == 0 || offAirTicks == 0) {
		t.Fatalf("over every run, %d cells in roamers' rows and %d ticks with a receiver off its frame's medium; want both positive",
			rowCells, offAirTicks)
	}
}

// TestReadableRefreshMatchesFullRefresh pins the readable-pair refresh
// against the full one it replaces (the fullGainRefresh oracle: every
// pair with a moved node, no row recompute on a change of medium). On
// every mobile input, the run with every skipped cell poisoned with NaN
// (poisonSkippedGains) and the oracle's run are both bit-identical to
// production, and the poisoned run carries the invariant probe, which
// fails on any NaN gain read. Static builds never refresh; the mobile
// inputs are the roaming rows, two of which change medium, the mobile
// compat presets and the walker floor.
func TestReadableRefreshMatchesFullRefresh(t *testing.T) {
	eachReport(t, refreshCheck)
}

// TestWorkerCapBoundsGainPasses: the Network's one worker cap
// (SetWorkers) sizes the gain passes as well as the shard driver.
// Under a cap of 1 the 272-node walker floor, above the passes'
// 256-node cutover, fills on one stripe and keeps one refresh scratch
// list, so its fill and its roam-tick refresh run on the calling
// goroutine and allocate nothing; a cap of 3 stripes both passes three
// ways on any machine. Every gain cell after the build and after a
// mobile run, and the run's result, must be bit-identical to a build
// at the default cap (GOMAXPROCS).
func TestWorkerCapBoundsGainPasses(t *testing.T) {
	build := func(cap int) *Network {
		n := walkerFloor(1)
		if len(n.nodes) < 256 {
			t.Fatalf("walker floor has %d nodes, below the striped passes' cutover", len(n.nodes))
		}
		n.SetWorkers(cap)
		n.Prepare()
		return n
	}
	def := build(0)
	wantBuild := gainMatrix(def)
	wantRun := fingerprint(def.Run(1e6))
	wantAfter := gainMatrix(def)
	for _, c := range []struct{ cap, stripes int }{{1, 1}, {3, 3}} {
		n := build(c.cap)
		if got := n.gains.stripes(len(n.nodes)); got != c.stripes {
			t.Fatalf("cap %d: the fill runs on %d stripes, want %d", c.cap, got, c.stripes)
		}
		if got := len(n.gains.cells); got != c.stripes {
			t.Fatalf("cap %d: %d refresh scratch lists, want %d", c.cap, got, c.stripes)
		}
		assertBitIdentical(t, fmt.Sprintf("cap %d gain after build", c.cap), wantBuild, gainMatrix(n))
		if got := fingerprint(n.Run(1e6)); got != wantRun {
			t.Fatalf("cap %d: the run diverged from the default cap's\ngot  %s\nwant %s", c.cap, got, wantRun)
		}
		assertBitIdentical(t, fmt.Sprintf("cap %d gain after the run", c.cap), wantAfter, gainMatrix(n))
		if c.cap != 1 {
			continue
		}
		if a := testing.AllocsPerRun(3, func() { n.gains.refresh(n.nodes) }); a != 0 {
			t.Fatalf("cap 1: the gain refresh on %d nodes made %v allocations, want 0", len(n.nodes), a)
		}
		if a := testing.AllocsPerRun(1, n.gains.fill); a != 0 {
			t.Fatalf("cap 1: the gain fill on %d nodes made %v allocations, want 0", len(n.nodes), a)
		}
	}
}

// shortTickSeeds is how many seeds the harness runs roaming-short-tick
// on, past equivSeeds (equivRow.inputs).
const shortTickSeeds = 10

// walkerFloor is 16 APs 30 m apart in a 4×4 grid on 1/6/11, each with
// 16 stations on random-waypoint walks over a 20 m square around it at
// 20–40 m/s with 250 ms pauses, so a tick's mover count varies. One
// light Poisson uplink per BSS keeps the run cheap.
func walkerFloor(seed int64) *Network {
	cfg := DefaultConfig()
	cfg.RoamIntervalUs = 100000
	n := New(cfg, seed)
	chans := []int{1, 6, 11}
	for i := range 16 {
		x, y := float64(30*(i%4)), float64(30*(i/4))
		b := n.AddAP(fmt.Sprintf("AP%d", i), x, y, chans[i%3])
		walk := RandomWaypoint{MinX: x - 10, MaxX: x + 10, MinY: y - 10, MaxY: y + 10,
			SpeedMinMps: 20, SpeedMaxMps: 40, PauseUs: 250000}
		for s := range 16 {
			st := n.AddStation(b, fmt.Sprintf("sta%d.%d", i, s), x+5, y)
			n.SetRandomWaypoint(st, walk)
			if s == 0 {
				n.Add(FlowSpec{From: st, AC: AC_BE, Gen: Poisson{PayloadBytes: 500, PktPerSec: 50}})
			}
		}
	}
	return n
}

// pairCount is what countPairs observed: the closed-form pair count,
// the ticks that moved a node, the cells of roamers' rows within the
// count, the ticks that found a receiver off the medium of a frame on
// the air to it, and the first pair whose two cells differed after a
// tick ("" when none).
type pairCount struct {
	pairs, ticks, rowCells, offAirTicks int
	asym                                string
}

// countPairs prepares n and arms an observer at every roam tick of the
// run that follows, right after the roam scan (scheduled later for the same
// instant, it runs after it), which counts the pairs the tick
// recomputed from what it can see: the nodes whose position changed,
// the media they held before the tick (media change only at ticks),
// the frames on the air (the scan neither starts nor ends one) and
// the tick's reassociations in order (EvRoam). Per tick that is the
// readable pairs with a moved node, then for each roam that changed
// medium the roamer's row: the other nodes of the new medium and the
// distinct receivers off it of frames on its air. The observer also
// checks every pair's two cells for the same bits (asymmetricGain).
// It adds what it sees to c, and attaches p beside its own recorder.
func countPairs(n *Network, c *pairCount, p Probe) {
	n.Prepare()
	nn := len(n.nodes)
	pos := make([][2]float64, nn)
	med := make([]*medium, nn)
	for i, nd := range n.nodes {
		pos[i], med[i] = [2]float64{nd.X, nd.Y}, nd.med
	}
	roams := &sliceProbe{}
	n.AttachProbe(fanout{roams, p})
	moved := make([]bool, nn)
	eng := &n.shards[0].eng
	var observe func()
	observe = func() {
		m := 0
		for i, nd := range n.nodes {
			p := [2]float64{nd.X, nd.Y}
			moved[i] = p != pos[i]
			if moved[i] {
				pos[i] = p
				m++
			}
		}
		if m > 0 {
			c.ticks++
			off := offAirOn(n, med)
			if len(off) > 0 {
				c.offAirTicks++
			}
			for i, a := range n.nodes {
				for j := i + 1; j < nn; j++ {
					if (moved[i] || moved[j]) && readableOn(a, n.nodes[j], med, off) {
						c.pairs++
					}
				}
			}
		}
		for _, ev := range roams.events {
			if ev.Kind != EvRoam {
				continue
			}
			st, to := n.nodes[ev.Node], n.nodes[ev.Peer].med
			if med[st.id] == to {
				continue
			}
			med[st.id] = to
			cells := 0
			for _, o := range n.nodes {
				if o != st && med[o.id] == to {
					cells++
				}
			}
			for _, x := range offAirOn(n, med) {
				if x.med == to {
					cells++
				}
			}
			c.rowCells += cells
			c.pairs += cells
		}
		roams.events = roams.events[:0]
		if d := asymmetricGain(n); d != "" && c.asym == "" {
			c.asym = fmt.Sprintf("after the tick at t=%v: %s", eng.Now(), d)
		}
		eng.Schedule(n.cfg.RoamIntervalUs, observe)
	}
	eng.Schedule(n.cfg.RoamIntervalUs, observe)
}

// offAirOn lists, once each, the receivers of frames on the air that
// are not on the frame's medium, with medium assignment med.
func offAirOn(n *Network, med []*medium) []airRx {
	var off []airRx
	for _, m := range n.media {
		for _, a := range m.active {
			x := airRx{a.rx, m}
			if med[a.rx.id] != m && !slices.Contains(off, x) {
				off = append(off, x)
			}
		}
	}
	return off
}

// readableOn is the readable-pair rule under medium assignment med and
// off-medium receivers off: a and o share a medium, one of them is an
// AP, or one of them receives, off its medium, a frame on the other's.
func readableOn(a, o *Node, med []*medium, off []airRx) bool {
	if med[a.id] == med[o.id] || a.ap || o.ap {
		return true
	}
	for _, x := range off {
		if x.rx == a && x.med == med[o.id] || x.rx == o && x.med == med[a.id] {
			return true
		}
	}
	return false
}

// staleGain recomputes every readable cell of a mobile network's gain
// rows (readableOn, on the nodes' media and the frames now on the
// air) from the nodes' current positions, and describes the first cell that differs in any bit ("" when none). The
// other cells hold gains from older positions, which no read reaches.
func staleGain(n *Network) string {
	b := n.cfg.Budget
	med := make([]*medium, len(n.nodes))
	for i, nd := range n.nodes {
		med[i] = nd.med
	}
	off := offAirOn(n, med)
	for i, a := range n.nodes {
		for j, o := range n.nodes {
			if i == j || !readableOn(a, o, med, off) {
				continue
			}
			loss := n.cfg.PathLoss.LossDB(dist(a, o))
			want := mwFromDBm(b.TxPowerDBm + b.TxAntennaGain + b.RxAntennaGain - loss)
			if got := a.gain[o.gi]; math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Sprintf("gain %d→%d holds %v, the final positions give %v", i, j, got, want)
			}
		}
	}
	return ""
}
