package netsim

import (
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// TestGainStateOracle pins the build's gain state against brute force.
// A static build parks each shadowing draw in rxDBm until fillGains
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
				"static rxDBm": static.rxDBm, "static rxMw": static.rxMw,
				"mobile rxDBm": mobile.rxDBm, "mobile rxMw": mobile.rxMw,
				"mobile shadowDB": mobile.shadowDB,
			} {
				if len(m) != nn {
					t.Fatalf("%s has %d rows, want %d", name, len(m), nn)
				}
				assertOneBackingArray(t, name, m, nn)
			}
			assertBitIdentical(t, "rxDBm", static.rxDBm, mobile.rxDBm)
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
			if got := static.gainBytes(); got != 2*perMatrix {
				t.Fatalf("static gainBytes = %d, want two matrices = %d", got, 2*perMatrix)
			}
			if got := mobile.gainBytes(); got != 3*perMatrix {
				t.Fatalf("mobile gainBytes = %d, want three matrices = %d", got, 3*perMatrix)
			}

			wantDBm, wantMw := cloneMatrix(mobile.rxDBm), cloneMatrix(mobile.rxMw)
			for _, nd := range mobile.nodes {
				mobile.refreshGains(nd)
			}
			assertBitIdentical(t, "refreshed rxDBm", wantDBm, mobile.rxDBm)
			assertBitIdentical(t, "refreshed rxMw", wantMw, mobile.rxMw)
		})
	}
	if got := SingleLink(DefaultConfig(), 10, 500)(1).Run(1e4).GainBytes; got != 2*(2*2*8+2*24) {
		t.Fatalf("Result.GainBytes = %d for a 2-node static run, want %d", got, 2*(2*2*8+2*24))
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
