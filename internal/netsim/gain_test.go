package netsim

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/linkmodel"
)

// TestGainStateOracle pins the build's gain state against brute force.
// A static build parks each shadowing draw in rxMw until fillGains
// folds it in, keeps only the scalar minimum, and drops the shadowing
// matrix; a build with mobility keeps the full matrix. Both must hold
// the same received powers bit for bit, the scalar must equal a full
// scan of the retained draws, and re-deriving every row from the
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
		name  string
		cfg   Config
		floor func(cfg Config) func(seed int64) *Network
	}{
		{"large-floor-shadowed", shadowed, func(cfg Config) func(int64) *Network {
			return LargeFloor(cfg, 16, 19, 4, 1, 6, 11) // 320 nodes
		}},
		{"bonded-40mhz", bonded, func(cfg Config) func(int64) *Network {
			return LargeFloor(cfg, 9, 4, 3, 1, 5, 9)
		}},
		{"obss-pd", obss, func(cfg Config) func(int64) *Network {
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
			if static.shadowDB != nil {
				t.Fatal("static build retained the shadowing matrix")
			}
			if len(mobile.shadowDB) != nn {
				t.Fatalf("mobile build kept %d shadowing rows, want %d", len(mobile.shadowDB), nn)
			}
			for name, m := range map[string][][]float64{
				"static rxMw": static.rxMw, "mobile rxMw": mobile.rxMw,
				"mobile shadowDB": mobile.shadowDB,
			} {
				if len(m) != nn {
					t.Fatalf("%s has %d rows, want %d", name, len(m), nn)
				}
				assertOneBackingArray(t, name, m, nn)
			}
			assertBitIdentical(t, "rxMw", static.rxMw, mobile.rxMw)

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

			perMatrix := int64(nn*nn*8 + nn*24)
			if got := static.gainBytes(); got != perMatrix {
				t.Fatalf("static gainBytes = %d, want one matrix = %d", got, perMatrix)
			}
			if got := mobile.gainBytes(); got != 2*perMatrix {
				t.Fatalf("mobile gainBytes = %d, want the gain and shadowing matrices = %d", got, 2*perMatrix)
			}

			want := cloneMatrix(mobile.rxMw)
			for _, nd := range mobile.nodes {
				mobile.refreshGains(nd)
			}
			assertBitIdentical(t, "refreshed rxMw", want, mobile.rxMw)
		})
	}
	if got := SingleLink(DefaultConfig(), 10, 500)(1).Run(1e4).GainBytes; got != 2*2*8+2*24 {
		t.Fatalf("Result.GainBytes = %d for a 2-node static run, want %d", got, 2*2*8+2*24)
	}
	if a := testing.AllocsPerRun(5, func() { newGainMatrix(300) }); a != 2 {
		t.Fatalf("newGainMatrix made %v allocations, want 2 (backing array + row headers)", a)
	}
}

// TestGainMatrixBlocks: above gainBlockBytes a gain matrix is split
// into backing arrays of whole rows, each within the cap, with every
// row a capacity-capped view laid end to end inside its block.
func TestGainMatrixBlocks(t *testing.T) {
	const nn = 1100 // 8,800 B rows: 476 rows per 4 MB block, 3 blocks
	per := gainBlockBytes / (8 * nn)
	m := newGainMatrix(nn)
	blocks := 0
	for lo := 0; lo < nn; lo += per {
		hi := min(nn, lo+per)
		assertOneBackingArray(t, fmt.Sprintf("block %d", blocks), m[lo:hi], nn)
		blocks++
	}
	if blocks != 3 {
		t.Fatalf("%d blocks, want 3", blocks)
	}
	if a := testing.AllocsPerRun(2, func() { newGainMatrix(nn) }); a != 1+3 {
		t.Fatalf("newGainMatrix(%d) made %v allocations, want 4 (row headers + 3 blocks)", nn, a)
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

func cloneMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// halfSlotDB is 10·log10(1/2): the half-slot penalty in the dB form of
// the carrier-sense rule, where hears halves the power in mW.
const halfSlotDB = -3.0102999566398121

// TestMilliwattRulesMatchDecibelRules pins the one-matrix gain state
// against the dB arithmetic it replaced. rxMw is the only gain matrix,
// and each per-frame decision compares it against a threshold New
// converts to mW once. The two rules can round apart only at an exact
// tie, and this test proves that no verdict moves. For every floor — each
// equivalence row and seed, each compat preset and the E27 floor — it
// recomputes each pair's received power p in dBm as fillGains does,
// taking the shadowing draws from a twin built with mobility (which
// keeps them; TestGainStateOracle proves both builds bit-identical),
// and asserts for every pair:
//   - rxMw holds mwFromDBm(p) bit for bit in both cells;
//   - the mW and dB rules agree on the carrier-sense threshold and the
//     OBSS-PD window, with and without the TX-power backoff, with the
//     half-slot penalty on bonded floors, and on NAV decode;
//   - the dBm readback (rxPowerDBm) picks the same linkMode BestMode
//     as p, and the roam scan's hysteresis test and the AP it settles
//     on come out the same on the readback as on p.
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
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			p := pDBm(i, j)
			mw := mwFromDBm(p)
			if math.Float64bits(n.rxMw[i][j]) != math.Float64bits(mw) ||
				math.Float64bits(n.rxMw[j][i]) != math.Float64bits(mw) {
				return fmt.Sprintf("rxMw[%d][%d] = %v, [%d][%d] = %v, want mwFromDBm(%v) = %v",
					i, j, n.rxMw[i][j], j, i, n.rxMw[j][i], p, mw)
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
	var aps []int
	for _, bss := range n.bss {
		aps = append(aps, bss.AP.id)
	}
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
	p, rb := make([]float64, len(aps)), make([]float64, len(aps))
	for _, nd := range nodes {
		if nd.ap {
			continue
		}
		for k, a := range aps {
			p[k], rb[k] = pDBm(a, nd.id), n.rxPowerDBm(nodes[a], nd)
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
