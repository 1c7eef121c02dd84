package netsim

import (
	"fmt"
	"math"
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
// full scan of the retained draws, and re-deriving every row from the
// retained draws (refreshGains on unmoved nodes) must change nothing.
// The 320-node case is above fillGains' 256-node cutover, so under
// -race it checks that the striped workers' in-place read of the parked
// draw never races another worker's lower-triangle writes.
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
			for _, nd := range mobile.nodes {
				mobile.refreshGains(nd)
			}
			assertBitIdentical(t, "refreshed gains", want2, gainMatrix(mobile))
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
