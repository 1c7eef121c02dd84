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
// bonded component), parks each same-domain shadowing draw in its row
// until fillGains folds it in, keeps only the scalar minimum over every
// pair, and drops the shadowing matrix; a build with mobility is one
// domain and keeps the full matrix. Every gain the static build stores
// must equal the mobile build's bit for bit, the scalar must equal a
// full scan of the retained draws, and re-deriving every pair from the
// retained draws (refreshGains with every node listed as moved, none
// having moved) must change nothing. The 320-node case is above
// fillGains' and refreshGains' 256-node cutover, so under -race it
// checks that the striped fill workers' in-place read of the parked
// draw never races another worker's lower-triangle writes, and that
// the striped refresh workers share no cell.
func TestGainStateOracle(t *testing.T) {
	shadowed := DefaultConfig()
	shadowed.PathLoss.ShadowDB = 6
	bonded := HtConfig(2, 40)
	bonded.PathLoss.ShadowDB = 4
	obss := DefaultConfig()
	obss.PathLoss.ShadowDB = 4
	obss.ObssPdThresholdDBm = -72
	cases := []struct {
		name    string
		cfg     Config
		domains int
		floor   func(cfg Config) func(seed int64) *Network
	}{
		{"large-floor-shadowed", shadowed, 3, func(cfg Config) func(int64) *Network {
			return LargeFloor(cfg, 16, 19, 4, 1, 6, 11) // 320 nodes
		}},
		{"bonded-40mhz", bonded, 3, func(cfg Config) func(int64) *Network {
			return LargeFloor(cfg, 9, 4, 3, 1, 5, 9)
		}},
		{"obss-pd", obss, 1, func(cfg Config) func(int64) *Network {
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
			if got := len(static.gainBounds) - 1; got != tc.domains {
				t.Fatalf("static build has %d gain domains, want %d", got, tc.domains)
			}
			if got := len(mobile.gainBounds) - 1; got != 1 {
				t.Fatalf("mobile build has %d gain domains, want 1", got)
			}
			if static.shadowDB != nil {
				t.Fatal("static build retained the shadowing matrix")
			}
			if len(mobile.shadowDB) != nn {
				t.Fatalf("mobile build kept %d shadowing rows, want %d", len(mobile.shadowDB), nn)
			}
			assertGainLayout(t, static)
			assertGainLayout(t, mobile)
			for name, n := range map[string]*Network{"static": static, "mobile": mobile} {
				if d := asymmetricGain(n); d != "" {
					t.Fatalf("%s build: %s", name, d)
				}
			}
			assertOneBackingArray(t, "mobile shadowDB", mobile.shadowDB, nn)
			assertSameGains(t, static, mobile)

			brute := 0.0
			for i := range mobile.shadowDB {
				for j := i + 1; j < nn; j++ {
					if sh := mobile.shadowDB[i][j]; sh < brute {
						brute = sh
					}
				}
			}
			if brute >= 0 {
				t.Fatalf("shadowed floor drew no negative shadowing (min %v)", brute)
			}
			for name, n := range map[string]*Network{"static": static, "mobile": mobile} {
				if got := n.minShadowDB(); math.Float64bits(got) != math.Float64bits(brute) {
					t.Fatalf("%s minShadowDB = %v, brute-force minimum %v", name, got, brute)
				}
			}

			var want int64
			for d := 0; d < tc.domains; d++ {
				k := int64(static.gainBounds[d+1] - static.gainBounds[d])
				want += k*k*8 + k*24
			}
			if got := static.gainBytes(); got != want {
				t.Fatalf("static gainBytes = %d, want the domains' rows = %d", got, want)
			}
			perMatrix := int64(nn*nn*8 + nn*24)
			if got := mobile.gainBytes(); got != 2*perMatrix {
				t.Fatalf("mobile gainBytes = %d, want the gain and shadowing matrices = %d", got, 2*perMatrix)
			}

			want2 := gainMatrix(mobile)
			mobile.refreshGains(mobile.nodes)
			assertBitIdentical(t, "refreshed gains", want2, gainMatrix(mobile))
			if d := asymmetricGain(mobile); d != "" {
				t.Fatalf("refreshed gains: %s", d)
			}
		})
	}
	if got := SingleLink(DefaultConfig(), 10, 500)(1).Run(1e4).GainBytes; got != 2*2*8+2*24 {
		t.Fatalf("Result.GainBytes = %d for a 2-node static run, want %d", got, 2*2*8+2*24)
	}
	if a := testing.AllocsPerRun(5, func() { newGainMatrix(300) }); a != 2 {
		t.Fatalf("newGainMatrix made %v allocations, want 2 (backing array + row headers)", a)
	}

	// The two large floors, laid out only (gainBytes reads the layout):
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
		fl.n.gainDomains()
		if got := len(fl.n.gainBounds) - 1; got != fl.domains {
			t.Fatalf("%s floor has %d gain domains, want %d", fl.name, got, fl.domains)
		}
		if got := fl.n.gainBytes(); got != fl.bytes {
			t.Fatalf("%s floor gainBytes = %d, want %d", fl.name, got, fl.bytes)
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

// assertOneBackingArray checks that m holds rows of length and capacity
// nn laid end to end in one array.
func assertOneBackingArray(t *testing.T, name string, m [][]float64, nn int) {
	t.Helper()
	base := uintptr(unsafe.Pointer(&m[0][0]))
	for i, row := range m {
		if len(row) != nn || cap(row) != nn {
			t.Fatalf("%s row %d has len %d cap %d, want %d", name, i, len(row), cap(row), nn)
		}
		if off := uintptr(unsafe.Pointer(&row[0])) - base; off != uintptr(i*nn*8) {
			t.Fatalf("%s row %d sits %d bytes past row 0, want %d", name, i, off, i*nn*8)
		}
	}
}

// gainDomainOf returns each node's gain domain index, by node id.
func gainDomainOf(n *Network) []int {
	dom := make([]int, len(n.nodes))
	for d := 0; d+1 < len(n.gainBounds); d++ {
		for _, nd := range n.gainMembers[n.gainBounds[d]:n.gainBounds[d+1]] {
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
	b := n.gainBounds
	if b[0] != 0 || b[len(b)-1] != len(n.nodes) || len(n.gainMembers) != len(n.nodes) {
		t.Fatalf("gain bounds %v over %d members for %d nodes", b, len(n.gainMembers), len(n.nodes))
	}
	seen := make([]bool, len(n.nodes))
	for d := 0; d+1 < len(b); d++ {
		dom := n.gainMembers[b[d]:b[d+1]]
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

// assertSameGains checks that every gain n stores, both cells of every
// same-domain pair, holds the bits the one-domain build one holds.
func assertSameGains(t *testing.T, n, one *Network) {
	t.Helper()
	dom := gainDomainOf(n)
	for i, a := range n.nodes {
		for j := i + 1; j < len(n.nodes); j++ {
			if dom[i] != dom[j] {
				continue
			}
			b := n.nodes[j]
			want := one.nodes[i].gain[j]
			if math.Float64bits(a.gain[b.gi]) != math.Float64bits(want) ||
				math.Float64bits(b.gain[a.gi]) != math.Float64bits(want) {
				t.Fatalf("pair %d-%d holds %v and %v, the one-domain build %v", i, j, a.gain[b.gi], b.gain[a.gi], want)
			}
		}
	}
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
// equivalence row and seed, each compat preset and the E27 floor — it
// recomputes each pair's received power p in dBm as fillGains does,
// taking the shadowing draws from a twin built with mobility (which
// keeps them; TestGainStateOracle proves both builds bit-identical),
// and asserts for every pair in one gain domain (the pairs a run can
// read):
//   - both cells of the pair hold mwFromDBm(p) bit for bit;
//   - the mW and dB rules agree on the carrier-sense threshold and the
//     OBSS-PD window, with and without the TX-power backoff, with the
//     half-slot penalty on bonded floors, and on NAV decode;
//   - the dBm readback (rxPowerDBm) picks the same linkMode BestMode
//     as p, and the roam scan's hysteresis test and the AP it settles
//     on come out the same on the readback as on p, over the APs in
//     the station's domain (all of them under mobility, the only
//     build that roams).
func TestMilliwattRulesMatchDecibelRules(t *testing.T) {
	floors := everyPreset()
	if !testing.Short() {
		floors = append(floors, compatRow{name: "e27-large-floor", build: func() *Network {
			cfg := DefaultConfig()
			cfg.CSThresholdDBm = -62
			return LargeFloor(cfg, 100, 40, 10, 1)(1) // 4,100 nodes
		}})
	}
	for _, fl := range floors {
		twin := fl.build()
		twin.cfg.RoamIntervalUs = 1e5
		twin.build()
		shadow := twin.shadowDB
		twin = nil // the E27 twin holds 269 MB; free it before the next build
		n := fl.build()
		n.build()
		if d := mismatchedRules(n, shadow); d != "" {
			t.Errorf("%s: %s", fl.name, d)
		}
	}
}

// mismatchedRules checks every pair of the built network n, given the
// floor's shadowing draws, and describes the first pair whose stored
// power or any rule verdict differs between mW and dB ("" when none).
func mismatchedRules(n *Network, shadow [][]float64) string {
	cfg, b := n.cfg, n.cfg.Budget
	nodes := n.nodes
	pDBm := func(i, j int) float64 {
		i, j = min(i, j), max(i, j)
		loss := cfg.PathLoss.LossDB(dist(nodes[i], nodes[j])) + shadow[i][j]
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
				return fmt.Sprintf("pair %d-%d holds %v and %v, want mwFromDBm(%v) = %v",
					i, j, a.gain[b.gi], b.gain[a.gi], p, mw)
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
	hyst := cfg.RoamHysteresisDB
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
// with a moved node once (Network.readable), plus the row of each
// station that then changes medium (refreshRow), against a recompute
// of every readable cell from the final positions and the shadowing
// draws. It runs every mobile equivalence row on every seed, and a
// 272-node floor of walkers above refreshGains' 256-node cutover, whose
// striped workers the race detector then covers. Each run also holds
// Result.GainRefreshPairs to its closed form: per tick, the readable
// pairs with a moved node, then the row of each roam that changed
// medium (runCountingPairs). The runs poison every skipped cell with
// NaN (Config.poisonSkippedGains), and after each tick both cells of
// every pair must hold the same bits (asymmetricGain): the interference
// crossing reads a pair from either side.
func TestMobileRefreshMatchesRecompute(t *testing.T) {
	type row struct {
		name       string
		durationUs float64
		build      func(seed int64) *Network
	}
	var rows []row
	for _, sc := range equivScenarios() {
		if !strings.HasPrefix(sc.name, "roaming-") {
			continue
		}
		for seed := int64(1); seed <= equivSeeds; seed++ {
			rows = append(rows, row{fmt.Sprintf("%s/seed%d", sc.name, seed), sc.durationUs,
				func(int64) *Network { return sc.build(DefaultConfig())(seed) }})
		}
	}
	if len(rows) != 4*equivSeeds {
		t.Fatalf("%d mobile equivalence runs, want the four roaming rows × %d seeds", len(rows), equivSeeds)
	}
	rows = append(rows, row{"walker-floor-272", 1e6, walkerFloor})
	var rowCells, offAirTicks int
	for _, r := range rows {
		n := r.build(1)
		if r.name == "walker-floor-272" && len(n.nodes) < 256 {
			t.Fatalf("%s has %d nodes, below the striped refresh's cutover", r.name, len(n.nodes))
		}
		n.cfg.poisonSkippedGains = true
		c := runCountingPairs(n, r.durationUs)
		if c.asym != "" {
			t.Errorf("%s: %s", r.name, c.asym)
		}
		t.Logf("%s: %d ticks moved nodes, %d pairs refreshed (%d in roamers' rows), %d roams",
			r.name, c.ticks, c.pairs, c.rowCells, c.res.Roams)
		if c.ticks == 0 {
			t.Fatalf("%s: no roam tick moved a node", r.name)
		}
		if c.res.GainRefreshPairs != c.pairs {
			t.Errorf("%s: GainRefreshPairs = %d, the closed form over the observed movers and roams gives %d",
				r.name, c.res.GainRefreshPairs, c.pairs)
		}
		if d := staleGain(n); d != "" {
			t.Errorf("%s: %s", r.name, d)
		}
		rowCells += c.rowCells
		offAirTicks += c.offAirTicks
	}
	// The cases the rule adds to same-medium and AP pairs must occur.
	if rowCells == 0 || offAirTicks == 0 {
		t.Fatalf("over every run, %d cells in roamers' rows and %d ticks with a receiver off its frame's medium; want both positive",
			rowCells, offAirTicks)
	}
	if got := SingleLink(DefaultConfig(), 10, 500)(1).Run(1e5).GainRefreshPairs; got != 0 {
		t.Fatalf("a static run reports %d refreshed pairs, want 0", got)
	}
	// Below the 256-node cutover the refresh runs on the calling
	// goroutine and allocates nothing.
	n := rows[2*equivSeeds-1].build(1)
	n.build()
	if a := testing.AllocsPerRun(5, func() { n.refreshGains(n.nodes) }); a != 0 {
		t.Fatalf("refreshGains on %d nodes made %v allocations, want 0", len(n.nodes), a)
	}
}

// TestReadableRefreshMatchesFullRefresh pins the readable-pair refresh
// against the full one it replaces (Config.fullGainRefresh: every pair
// with a moved node, no row recompute on a change of medium). On every
// equivalence row and seed, every compat preset and the walker floor,
// the run with every skipped cell poisoned with NaN
// (Config.poisonSkippedGains) must be bit-identical to the oracle's, and
// under mobility it carries the invariant probe, which fails on any NaN
// gain read. Static builds never refresh, so their rows hold trivially;
// the mobile ones are the roaming rows, two of which change medium.
// roaming-short-tick, whose ticks fall while frames are on the air to
// roamed-off receivers, runs shortTickSeeds seeds: the refresh's
// in-flight branches (Network.offAir, refreshRow's off-medium
// receivers) are hit on few of them.
func TestReadableRefreshMatchesFullRefresh(t *testing.T) {
	check := func(t *testing.T, label string, build func() *Network, durationUs float64) {
		t.Helper()
		mk := func(full bool) func() *Network {
			return func() *Network {
				n := build()
				n.cfg.fullGainRefresh = full
				n.cfg.poisonSkippedGains = !full
				return n
			}
		}
		n := mk(false)()
		var p *csInvariantProbe
		if n.cfg.RoamIntervalUs > 0 {
			p = &csInvariantProbe{n: n}
			n.AttachProbe(p)
		}
		rule := fingerprint(n.Run(durationUs))
		if p != nil && p.err != nil {
			t.Fatalf("%s: %v", label, p.err)
		}
		if full := fingerprint(mk(true)().Run(durationUs)); rule != full {
			t.Fatalf("%s: the readable-pair refresh diverged from the full refresh\n%s",
				label, explainDivergence(mk(false), mk(true), durationUs))
		}
	}
	for _, sc := range equivScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			seeds := int64(equivSeeds)
			if sc.name == "roaming-short-tick" {
				seeds = shortTickSeeds
			}
			for seed := int64(1); seed <= seeds; seed++ {
				check(t, fmt.Sprintf("seed %d", seed), func() *Network { return sc.build(DefaultConfig())(seed) }, sc.durationUs)
			}
		})
	}
	for _, row := range compatScenarios() {
		t.Run(row.name, func(t *testing.T) { check(t, row.name, row.build, row.durationUs) })
	}
	t.Run("walker-floor-272", func(t *testing.T) {
		check(t, "walker-floor-272", func() *Network { return walkerFloor(1) }, 1e6)
	})
}

// shortTickSeeds is how many seeds TestReadableRefreshMatchesFullRefresh
// runs roaming-short-tick on, past equivSeeds.
const shortTickSeeds = 10

// walkerFloor is 16 APs 30 m apart in a 4×4 grid on 1/6/11, each with
// 16 stations on random-waypoint walks over a 20 m square around it at
// 20–40 m/s with 250 ms pauses, so a tick's mover count varies. One
// light Poisson uplink per BSS keeps the run cheap.
func walkerFloor(seed int64) *Network {
	cfg := DefaultConfig()
	cfg.PathLoss.ShadowDB = 4
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

// pairCount is what runCountingPairs observed: the run's Result, the
// closed-form pair count, the ticks that moved a node, the cells of
// roamers' rows within the count, the ticks that found a receiver off
// the medium of a frame on the air to it, and the first pair whose two
// cells differed after a tick ("" when none).
type pairCount struct {
	res                                 Result
	pairs, ticks, rowCells, offAirTicks int
	asym                                string
}

// runCountingPairs runs n for durationUs with an observer at every
// roam tick, right after the roam scan (scheduled later for the same
// instant, it runs after it), which counts the pairs the tick
// recomputed from what it can see: the nodes whose position changed,
// the media they held before the tick (media change only at ticks),
// the frames on the air (the scan neither starts nor ends one) and
// the tick's reassociations in order (EvRoam). Per tick that is the
// readable pairs with a moved node, then for each roam that changed
// medium the roamer's row: the other nodes of the new medium and the
// distinct receivers off it of frames on its air. The observer also
// checks every pair's two cells for the same bits (asymmetricGain).
func runCountingPairs(n *Network, durationUs float64) (c pairCount) {
	n.Prepare()
	nn := len(n.nodes)
	pos := make([][2]float64, nn)
	med := make([]*medium, nn)
	for i, nd := range n.nodes {
		pos[i], med[i] = [2]float64{nd.X, nd.Y}, nd.med
	}
	roams := &sliceProbe{}
	n.AttachProbe(roams)
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
			for _, o := range n.nodes {
				if o != st && med[o.id] == to {
					c.rowCells++
				}
			}
			for _, x := range offAirOn(n, med) {
				if x.med == to {
					c.rowCells++
				}
			}
		}
		roams.events = roams.events[:0]
		if d := asymmetricGain(n); d != "" && c.asym == "" {
			c.asym = fmt.Sprintf("after the tick at t=%v: %s", eng.Now(), d)
		}
		eng.Schedule(n.cfg.RoamIntervalUs, observe)
	}
	eng.Schedule(n.cfg.RoamIntervalUs, observe)
	c.res = n.Run(durationUs)
	c.pairs += c.rowCells
	return c
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
// air) from the nodes' current positions and the shadowing draws, and
// describes the first cell that differs in any bit ("" when none). The
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
			loss := n.cfg.PathLoss.LossDB(dist(a, o)) + n.shadowDB[i][j]
			want := mwFromDBm(b.TxPowerDBm + b.TxAntennaGain + b.RxAntennaGain - loss)
			if got := a.gain[o.gi]; math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Sprintf("gain %d→%d holds %v, the final positions give %v", i, j, got, want)
			}
		}
	}
	return ""
}
