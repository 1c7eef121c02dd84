package experiments

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/report"
)

// parse extracts a float cell, tolerating ratio suffixes like "5.0x".
func parse(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimSuffix(cell, "x")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

// updateTables rewrites quickTablesPath from this tree. The file is the
// results contract: a change to it is a deliberate re-golden, made only
// when an exhibit is meant to move.
var updateTables = flag.Bool("update", false,
	"rewrite "+quickTablesPath+" from this tree's exhibit tables at Quick()")

// quickTablesPath holds every exhibit's tables at Quick() (seed 1), as
// cmd/experiments -run all -quick prints them, with E27's wall-clock
// column dropped.
const quickTablesPath = "testdata/quick_tables.txt"

// wallColumn is E27's wall-clock column, the one cell of the exhibits
// that depends on the machine rather than the seed.
const wallColumn = "wall ms/sim s"

// TestAllRunnersProduceTables runs every exhibit at Quick(), checks each
// table's shape, and compares the formatted tables with the committed
// quickTablesPath text, line by line.
func TestAllRunnersProduceTables(t *testing.T) {
	cfg := Quick()
	var out strings.Builder
	for _, r := range All() {
		tables := r.Run(cfg)
		if len(tables) == 0 {
			t.Errorf("%s produced no tables", r.ID)
			continue
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Errorf("%s table %q has no rows", r.ID, tb.Title)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Header) {
					t.Errorf("%s: row width %d != header %d", r.ID, len(row), len(tb.Header))
				}
			}
			if out := tb.Format(); !strings.Contains(out, tb.Title) {
				t.Errorf("%s: Format missing title", r.ID)
			}
			tb = dropColumn(tb, wallColumn)
			out.WriteString(tb.Format())
			out.WriteByte('\n')
		}
	}
	got := out.String()
	if *updateTables {
		if err := os.MkdirAll(filepath.Dir(quickTablesPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(quickTablesPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", quickTablesPath)
		return
	}
	data, err := os.ReadFile(quickTablesPath)
	if err != nil {
		t.Fatalf("read the committed tables (run with -update to write them): %v", err)
	}
	if want := string(data); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		line := func(ls []string) string {
			if i < len(ls) {
				return ls[i]
			}
			return "<end of output>"
		}
		t.Fatalf("exhibit tables differ from %s at line %d:\n got: %s\nwant: %s",
			quickTablesPath, i+1, line(gl), line(wl))
	}
}

// dropColumn returns tb without the column headed name, or tb itself
// when it has none.
func dropColumn(tb report.Table, name string) report.Table {
	c := slices.Index(tb.Header, name)
	if c < 0 {
		return tb
	}
	tb.Header = slices.Delete(slices.Clone(tb.Header), c, c+1)
	rows := make([][]string, len(tb.Rows))
	for i, row := range tb.Rows {
		rows[i] = slices.Delete(slices.Clone(row), c, c+1)
	}
	tb.Rows = rows
	return tb
}

func TestByID(t *testing.T) {
	if _, err := ByID("E5"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Error("unknown id should fail")
	}
}

func TestE01FivefoldLadder(t *testing.T) {
	tb := E01Evolution(Quick())[0]
	// Column 3 is bps/Hz; each generation should be roughly 5x the last.
	if len(tb.Rows) != 4 {
		t.Fatalf("%d generations", len(tb.Rows))
	}
	prev := 0.0
	for i, row := range tb.Rows {
		se := parse(t, row[3])
		if i > 0 {
			ratio := se / prev
			if ratio < 4 || ratio > 7 {
				t.Errorf("generation %d efficiency step %vx, want ~5x", i, ratio)
			}
		}
		prev = se
		delivery := parse(t, row[6])
		minOK := 0.9
		if i == len(tb.Rows)-1 {
			minOK = 0.3 // MCS31 at 40 dB still loses badly-conditioned draws
		}
		if delivery < minOK {
			t.Errorf("generation %s delivery rate %v too low", row[0], delivery)
		}
	}
	if prev != 15 {
		t.Errorf("final efficiency %v, want 15 bps/Hz", prev)
	}
}

func TestE02SpreadingWins(t *testing.T) {
	tb := E02ProcessingGain(Quick())[0]
	wins := 0
	for _, row := range tb.Rows {
		if row[3] == "yes" {
			wins++
		}
	}
	if wins < len(tb.Rows)-1 {
		t.Errorf("spreading won only %d/%d J/S points", wins, len(tb.Rows))
	}
}

func TestE03WaterfallMonotoneInSNR(t *testing.T) {
	tb := E03Waterfall(Quick())[0]
	// For each PHY column, the first and last SNR rows should bracket the
	// waterfall: PER at the lowest SNR >= PER at the highest.
	for col := 1; col < len(tb.Header); col++ {
		first := parse(t, tb.Rows[0][col])
		last := parse(t, tb.Rows[len(tb.Rows)-1][col])
		if last > first {
			t.Errorf("column %s: PER rose with SNR (%v -> %v)", tb.Header[col], first, last)
		}
	}
	// The fastest mode must be the weakest at low SNR.
	if parse(t, tb.Rows[0][5]) < parse(t, tb.Rows[0][1]) {
		t.Error("54 Mbps should fail harder than DSSS 2 at low SNR")
	}
}

func TestE04CapacityScaling(t *testing.T) {
	tables := E04MimoCapacity(Quick())
	cap := tables[0]
	last := cap.Rows[len(cap.Rows)-1]
	c11 := parse(t, last[1])
	c44 := parse(t, last[4])
	if c44 < 3*c11 {
		t.Errorf("4x4 capacity %v not ~4x of 1x1 %v at high SNR", c44, c11)
	}
	rates := tables[1]
	if got := parse(t, rates.Rows[3][1]); got != 600 {
		t.Errorf("4-stream peak rate %v, want 600", got)
	}
}

func TestE05RangeExtension(t *testing.T) {
	tb := E05Range(Quick())[0]
	// Last config (4x4 beamformed) must extend range well beyond SISO.
	lastRow := tb.Rows[len(tb.Rows)-1]
	ratio := parse(t, lastRow[2])
	if ratio < 2 {
		t.Errorf("4x4 range extension %vx, want several-fold", ratio)
	}
}

// TestE06LdpcShape: LDPC fails no more often than BCC at any SNR row,
// and reaches 10% PER at a lower SNR.
func TestE06LdpcShape(t *testing.T) {
	tables := E06Ldpc(Quick())
	for _, row := range tables[0].Rows {
		if bcc, ldpc := parse(t, row[1]), parse(t, row[2]); ldpc > bcc {
			t.Errorf("SNR %s dB: LDPC PER %v above BCC PER %v", row[0], ldpc, bcc)
		}
	}
	if gain := parse(t, tables[1].Rows[2][1]); gain <= 0 {
		t.Errorf("LDPC coding gain %v dB, want above 0", gain)
	}
}

// TestE07BeamformingShape: the beamformed 2x2 link fails no more often
// than open-loop SISO at any SNR row, and reaches 10% PER at a lower SNR.
func TestE07BeamformingShape(t *testing.T) {
	tables := E07Beamforming(Quick())
	for _, row := range tables[0].Rows {
		if open, bf := parse(t, row[1]), parse(t, row[2]); bf > open {
			t.Errorf("SNR %s dB: beamformed PER %v above open-loop PER %v", row[0], bf, open)
		}
	}
	if gain := parse(t, tables[1].Rows[2][1]); gain <= 0 {
		t.Errorf("beamforming gain %v dB, want above 0", gain)
	}
}

// TestE13TpcShape: at every distance the 4-antenna array gain lets the
// beamformed link radiate 6 dB less (to the table's rounding of each
// cell to 3 significant digits), and that saving pays for the extra
// chains' DC power only at range: not at 10 m, but at 120 m.
func TestE13TpcShape(t *testing.T) {
	tb := E13Tpc(Quick())[0]
	for _, row := range tb.Rows {
		if open, bf := parse(t, row[1]), parse(t, row[3]); math.Abs(open-6-bf) > 0.1 {
			t.Errorf("%s m: beamformed %v dBm, want open-loop %v dBm - 6", row[0], bf, open)
		}
	}
	near, far := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if near[0] != "10" || near[5] != "no" || far[0] != "120" || far[5] != "yes" {
		t.Errorf("saving reads %q at %s m and %q at %s m, want no at 10 m and yes at 120 m",
			near[5], near[0], far[5], far[0])
	}
}

// TestE08MeshCoverageShape: adding mesh points never shrinks the served
// area, and the nine-point mesh serves at least 1.8x the single AP's.
func TestE08MeshCoverageShape(t *testing.T) {
	tb := E08MeshCoverage(Quick())[0]
	prev := 0.0
	for _, row := range tb.Rows {
		served := parse(t, row[1])
		if served < prev {
			t.Errorf("%s mesh points serve %v, below the %v of fewer points", row[0], served, prev)
		}
		prev = served
	}
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if first[0] != "1" || last[0] != "9" {
		t.Fatalf("rows run from %s to %s mesh points, want 1 to 9", first[0], last[0])
	}
	if single, mesh := parse(t, first[1]), parse(t, last[1]); mesh < 1.8*single {
		t.Errorf("9 mesh points serve %v, want at least 1.8x the single AP's %v", mesh, single)
	}
}

// TestE09MeshRoutingShape: on every span the airtime route carries at
// least the hop-count route's throughput and the table says so; on the
// longest span it takes more, shorter hops and carries strictly more.
func TestE09MeshRoutingShape(t *testing.T) {
	tb := E09MeshRouting(Quick())[0]
	for _, row := range tb.Rows {
		if hop, air := parse(t, row[2]), parse(t, row[4]); air < hop {
			t.Errorf("%s m: airtime route %v Mbps below hop-count route %v Mbps", row[0], air, hop)
		}
		if row[6] != "yes" {
			t.Errorf("%s m: airtime wins reads %q, want yes", row[0], row[6])
		}
	}
	far := tb.Rows[len(tb.Rows)-1]
	if far[0] != "220" {
		t.Fatalf("last span is %s m, want 220", far[0])
	}
	if hopHops, airHops := parse(t, far[3]), parse(t, far[5]); airHops <= hopHops {
		t.Errorf("220 m: airtime route takes %v hops, want more than hop-count's %v", airHops, hopHops)
	}
	if hop, air := parse(t, far[2]), parse(t, far[4]); air <= hop {
		t.Errorf("220 m: airtime route %v Mbps, want strictly above hop-count's %v Mbps", air, hop)
	}
}

func TestE10CoopOrdering(t *testing.T) {
	tb := E10Coop(Quick())[0]
	// At the highest SNR row: selection <= DF <= direct.
	last := tb.Rows[len(tb.Rows)-1]
	direct := parse(t, last[1])
	df := parse(t, last[2])
	sel := parse(t, last[3])
	if df > direct || sel > df {
		t.Errorf("outage ordering violated: direct %v, DF %v, selection %v", direct, df, sel)
	}
}

func TestE11PaprOrdering(t *testing.T) {
	tb := E11Papr(Quick())[0]
	dsssPapr := parse(t, tb.Rows[0][1])
	ofdmPapr := parse(t, tb.Rows[2][1])
	if ofdmPapr <= dsssPapr {
		t.Errorf("OFDM PAPR %v not above DSSS %v", ofdmPapr, dsssPapr)
	}
	dsssEff := parse(t, tb.Rows[0][3])
	ofdmEff := parse(t, tb.Rows[2][3])
	if ofdmEff >= dsssEff {
		t.Errorf("OFDM PA efficiency %v not below DSSS %v", ofdmEff, dsssEff)
	}
}

func TestE12PowerScaling(t *testing.T) {
	tables := E12ChainSwitch(Quick())
	t4 := tables[0].Rows[3]
	if ratio := parse(t, strings.TrimSuffix(t4[4], "x")); ratio < 2 {
		t.Errorf("4x4 rx power ratio %v, want > 2", ratio)
	}
	// Sniff-then-wake must win at the lowest duty cycle.
	sw := tables[1].Rows[0]
	if parse(t, sw[2]) >= parse(t, sw[1]) {
		t.Error("chain switching should save energy at 0.1% duty")
	}
}

func TestE14PsmSavesEnergy(t *testing.T) {
	tb := E14Psm(Quick())[0]
	camEnergy := parse(t, tb.Rows[0][1])
	psmEnergy := parse(t, tb.Rows[1][1])
	if psmEnergy >= camEnergy {
		t.Errorf("PSM energy %v not below CAM %v", psmEnergy, camEnergy)
	}
	camLat := parse(t, tb.Rows[0][2])
	psmLat := parse(t, tb.Rows[1][2])
	if psmLat <= camLat {
		t.Errorf("PSM latency %v not above CAM %v", psmLat, camLat)
	}
}

func TestE15AggregationRestoresEfficiency(t *testing.T) {
	tb := E15Aggregation(Quick())[0]
	last := tb.Rows[len(tb.Rows)-1] // 600 Mbps row
	plainEff := parse(t, last[2])
	aggEff := parse(t, last[4])
	if plainEff > 0.2 {
		t.Errorf("unaggregated efficiency at 600 Mbps = %v, expected collapse", plainEff)
	}
	if aggEff < 0.6 {
		t.Errorf("aggregated efficiency at 600 Mbps = %v, expected restoration", aggEff)
	}
}

func TestE16AcquisitionWaterfall(t *testing.T) {
	tables := E16Acquisition(Quick())
	tb := tables[0]
	low := parse(t, tb.Rows[0][1])
	high := parse(t, tb.Rows[len(tb.Rows)-1][1])
	if low > 0.3 {
		t.Errorf("decode rate %v at 0 dB, expected failure region", low)
	}
	if high < 0.9 {
		t.Errorf("decode rate %v at high SNR, expected near 1", high)
	}
	fa := tables[1]
	if parse(t, fa.Rows[0][1]) > parse(t, fa.Rows[0][0])*0.05 {
		t.Errorf("false alarm count %v too high", fa.Rows[0][1])
	}
}

func TestE18SignatureMatch(t *testing.T) {
	tables := E18Signature(Quick())
	bw := tables[0]
	dsssBW := parse(t, bw.Rows[0][2])
	cckBW := parse(t, bw.Rows[1][2])
	if diff := math.Abs(dsssBW - cckBW); diff > 1.5 {
		t.Errorf("DSSS and CCK occupied bandwidths differ by %v MHz", diff)
	}
	corr := tables[1]
	if got := parse(t, corr.Rows[0][1]); got < 0.9 {
		t.Errorf("DSSS-CCK spectral correlation %v, want near 1", got)
	}
}

func TestE19AnomalyShape(t *testing.T) {
	tb := E19Anomaly(Quick())[0]
	// Fast-station goodput must fall as the legacy rate drops, and the
	// legacy station's airtime share must grow.
	fastAt54 := parse(t, tb.Rows[0][1])
	fastAt1 := parse(t, tb.Rows[len(tb.Rows)-1][1])
	if fastAt1 >= fastAt54/3 {
		t.Errorf("anomaly too weak: fast goodput %v -> %v", fastAt54, fastAt1)
	}
	airAt54 := parse(t, tb.Rows[0][4])
	airAt1 := parse(t, tb.Rows[len(tb.Rows)-1][4])
	if airAt1 <= airAt54*2 {
		t.Errorf("legacy airtime share %v -> %v; expected it to balloon", airAt54, airAt1)
	}
}

// modesByNode records which PHY modes each node's data frames went out
// at.
type modesByNode map[int]map[string]bool

func (m modesByNode) OnEvent(ev netsim.Event) {
	if ev.Kind != netsim.EvTxStart || ev.Frame != netsim.FrameData {
		return
	}
	if m[ev.Node] == nil {
		m[ev.Node] = map[string]bool{}
	}
	m[ev.Node][ev.Mode] = true
}

// TestE19StationsHoldTheirModes pins E19's premise: on every row the
// three fast stations attempt only at OFDM 54 Mbps and the legacy
// station only at its row's mode. Without it a path-loss or rate-table
// change could move a station to another rate while the anomaly's
// shape still holds.
func TestE19StationsHoldTheirModes(t *testing.T) {
	const fast = "OFDM 54 Mbps"
	for _, rate := range e19LegacyRates {
		legacy := modeAt(rate).Name
		n := e19Network(rate, 1)
		seen := modesByNode{}
		n.AttachProbe(seen)
		res := n.Run(2e5)
		want := map[string]bool{fast: true, legacy: true}
		for name, count := range res.ModeAttempts {
			if !want[name] || count == 0 {
				t.Errorf("legacy %g Mbps: ModeAttempts[%q] = %d, want attempts only at %q and %q",
					rate, name, count, fast, legacy)
			}
		}
		if len(res.ModeAttempts) != len(want) {
			t.Errorf("legacy %g Mbps: ModeAttempts %v, want attempts at both %q and %q",
				rate, res.ModeAttempts, fast, legacy)
		}
		// Node 0 is the AP; the stations follow in the order added.
		for id, mode := range map[int]string{1: fast, 2: fast, 3: fast, 4: legacy} {
			if len(seen[id]) != 1 || !seen[id][mode] {
				t.Errorf("legacy %g Mbps: station %d attempted at %v, want only %q", rate, id, seen[id], mode)
			}
		}
	}
}

func TestE20EnergyPerBitFalls(t *testing.T) {
	tb := E20EnergyPerBit(Quick())[0]
	prev := math.Inf(1)
	for _, row := range tb.Rows {
		nj := parse(t, row[3])
		if nj >= prev {
			t.Fatalf("energy per bit did not fall at %s: %v", row[0], nj)
		}
		prev = nj
	}
	first := parse(t, tb.Rows[0][3])
	last := parse(t, tb.Rows[len(tb.Rows)-1][3])
	if first/last < 20 {
		t.Errorf("nJ/bit improvement only %vx across generations", first/last)
	}
}

func TestE21CoexistenceShape(t *testing.T) {
	tb := E21Coexistence(Quick())[0]
	prev := 1.1
	for _, row := range tb.Rows {
		mean := parse(t, row[1])
		if mean > prev+0.02 {
			t.Fatalf("mean success rose as networks joined: %v", tb.Rows)
		}
		prev = mean
	}
	// 40 networks: still graceful (last row).
	last := tb.Rows[len(tb.Rows)-1]
	if parse(t, last[1]) < 0.4 {
		t.Errorf("40-network mean success %v; degradation should be graceful", last[1])
	}
}

func TestCSVWellFormed(t *testing.T) {
	tb := E05Range(Quick())[0]
	csv := tb.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != len(tb.Rows)+1 {
		t.Errorf("CSV has %d lines, want %d", len(lines), len(tb.Rows)+1)
	}
}

func TestE22ChannelReuseBeatsCoChannel(t *testing.T) {
	tb := E22DenseBSS(Quick())[0]
	// Rows: 1 BSS, 2/3/4 co-channel, then 3/4 with 1/6/11 reuse.
	oneBSS := parse(t, tb.Rows[0][2])
	co3 := parse(t, tb.Rows[2][2])
	reuse3 := parse(t, tb.Rows[4][2])
	if co3 > oneBSS*2 {
		t.Errorf("3 co-channel BSSs yielded %v Mbps vs %v for one; a shared collision domain cannot triple capacity", co3, oneBSS)
	}
	if reuse3 < co3*1.5 {
		t.Errorf("1/6/11 reuse %v Mbps vs co-channel %v; orthogonal channels should multiply capacity", reuse3, co3)
	}
	coJain := parse(t, tb.Rows[3][4])
	if coJain > parse(t, tb.Rows[0][4])+0.01 {
		t.Errorf("fairness improved as co-channel cells piled on: %v", tb.Rows)
	}
}

func TestE23VoiceDelayGrowsWithLoad(t *testing.T) {
	tb := E23TrafficMix(Quick())[0]
	first := parse(t, tb.Rows[0][2])
	last := parse(t, tb.Rows[len(tb.Rows)-1][2])
	if last < first {
		t.Errorf("voice delay fell as data load rose: %v -> %v us", first, last)
	}
	// Data goodput must track offered load at the low end.
	if got := parse(t, tb.Rows[0][5]); got < 0.5 {
		t.Errorf("light data load delivered only %v Mbps", got)
	}
}

func TestE25EdcaProtectsVoiceTail(t *testing.T) {
	tb := E25EdcaQos(Quick())[0]
	// Columns: data load, legacy p95, EDCA p95, ratio, drops, goodputs.
	// At the highest data load the acceptance bar is a 5x tail-latency
	// protection for AC_VO voice over the legacy single class.
	last := tb.Rows[len(tb.Rows)-1]
	legacyP95, edcaP95 := parse(t, last[1]), parse(t, last[2])
	if legacyP95 < 5*edcaP95 {
		t.Errorf("high-load voice p95: legacy %v us vs EDCA %v us; want at least 5x protection",
			legacyP95, edcaP95)
	}
	// At the lightest load the two schemes should be comparable — EDCA
	// must not penalize an uncongested cell.
	first := tb.Rows[0]
	if lp, ep := parse(t, first[1]), parse(t, first[2]); ep > 2*lp {
		t.Errorf("light-load EDCA voice p95 %v us above 2x legacy %v us", ep, lp)
	}
	// The EDCA column's tail must stay flat-ish across the sweep while
	// the legacy column explodes.
	edcaFirst, edcaLast := parse(t, first[2]), parse(t, last[2])
	if edcaLast > 10*edcaFirst {
		t.Errorf("EDCA voice p95 still exploded with load: %v -> %v us", edcaFirst, edcaLast)
	}
	// Data must keep flowing in both schemes at every load.
	for _, row := range tb.Rows {
		if dl, de := parse(t, row[6]), parse(t, row[7]); dl <= 0 || de <= 0 {
			t.Errorf("data starved at load %s: legacy %v, edca %v", row[0], dl, de)
		}
	}
}

func TestE26AmpduRestoresEfficiency(t *testing.T) {
	tb := E26AmpduEfficiency(Quick())[0]
	// Columns: rate, plain Mbps, plain eff, ampdu Mbps, ampdu eff,
	// gain, mean burst size. Single-frame MAC efficiency must collapse
	// as the PHY rate climbs the ladder...
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	eff6, eff54 := parse(t, first[2]), parse(t, last[2])
	if eff54 >= eff6/2 {
		t.Errorf("single-frame efficiency did not collapse up the ladder: %v at 6 Mbps vs %v at 54", eff6, eff54)
	}
	// ...and the acceptance bar: A-MPDU restores it at the top OFDM
	// rate by at least 2x.
	ampduEff54 := parse(t, last[4])
	if ampduEff54 < 2*eff54 {
		t.Errorf("top-rate A-MPDU efficiency %v not >= 2x single-frame %v", ampduEff54, eff54)
	}
	// Aggregation must win on goodput at every rung, hardest at the top.
	for _, row := range tb.Rows {
		if pm, am := parse(t, row[1]), parse(t, row[3]); am <= pm {
			t.Errorf("%s Mbps: aggregated goodput %v not above single-frame %v", row[0], am, pm)
		}
	}
	if size := parse(t, last[6]); size < 4 {
		t.Errorf("saturated link filled bursts of only %v MPDUs", size)
	}
}

func TestE17HiddenTerminalShape(t *testing.T) {
	tb := E17HiddenTerminal(Quick())[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows, want 6/12/24/54 Mbps", len(tb.Rows))
	}
	// Columns: rate, plain goodput, plain collision rate, RTS goodput,
	// RTS collision rate, RTS wins. The data frame is the vulnerable
	// window, so RTS/CTS pays most at the lowest rate...
	first := tb.Rows[0]
	if ratio := parse(t, first[3]) / parse(t, first[1]); ratio < 1.5 {
		t.Errorf("%s Mbps: RTS/plain goodput %.2fx, want at least 1.5x", first[0], ratio)
	}
	// ...and its edge shrinks as the frame does: the goodput ratio and
	// the plain collision rate fall strictly up the rate ladder.
	prevRatio, prevColl := math.Inf(1), math.Inf(1)
	for _, row := range tb.Rows {
		ratio := parse(t, row[3]) / parse(t, row[1])
		if ratio >= prevRatio {
			t.Errorf("%s Mbps: RTS/plain ratio %.3f not below %.3f at the rate before", row[0], ratio, prevRatio)
		}
		prevRatio = ratio
		plainColl, rtsColl := parse(t, row[2]), parse(t, row[4])
		if plainColl >= prevColl {
			t.Errorf("%s Mbps: plain collision rate %v not below %v at the rate before", row[0], plainColl, prevColl)
		}
		prevColl = plainColl
		// Collisions shrink to the RTS at every rate.
		if rtsColl >= plainColl {
			t.Errorf("%s Mbps: RTS collision rate %v not below plain %v", row[0], rtsColl, plainColl)
		}
	}
}

func TestE24RtsRecoveryAndArfStaircase(t *testing.T) {
	tables := E24RtsCtsHidden(Quick())
	if len(tables) != 2 {
		t.Fatalf("%d tables", len(tables))
	}
	// The hidden pair must show RTS/CTS recovering goodput and cutting
	// the collision rate.
	for _, row := range tables[0].Rows {
		plain, rts := parse(t, row[0]), parse(t, row[1])
		if rts <= plain {
			t.Errorf("RTS goodput %v not above plain %v", rts, plain)
		}
		if pc, rc := parse(t, row[3]), parse(t, row[4]); rc >= pc {
			t.Errorf("RTS collision rate %v not below plain %v", rc, pc)
		}
	}
	// The ARF attempt histogram must shift to lower rates with distance.
	stairs := tables[1].Rows
	near := parse(t, stairs[0][2])
	far := parse(t, stairs[len(stairs)-1][2])
	if far >= near {
		t.Errorf("mean attempted rate far %v not below near %v", far, near)
	}
}

func TestE27DensityScalesUnderSpatialReuse(t *testing.T) {
	tb := E27LargeFloorScale(Quick())[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// Columns: nBSS, nodes, agg Mbps, per-BSS Mbps, BSS Jain, collision
	// rate, wall. With 1/6/11 reuse and an OBSS-PD-style CS threshold,
	// aggregate capacity must keep growing with floor density...
	prev := 0.0
	for _, row := range tb.Rows {
		agg := parse(t, row[2])
		if agg <= prev {
			t.Errorf("aggregate throughput stopped growing with density: %v after %v Mbps", agg, prev)
		}
		prev = agg
	}
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if a0, aN := parse(t, first[2]), parse(t, last[2]); aN < 3*a0 {
		t.Errorf("144 BSSs deliver %v Mbps vs %v for 25; spatial reuse should multiply capacity", aN, a0)
	}
	// ...the per-BSS share must hold up (parallel cells, not a shared
	// collision domain slicing one cell's capacity ever thinner)...
	if p0, pN := parse(t, first[3]), parse(t, last[3]); pN < 0.5*p0 {
		t.Errorf("per-BSS share collapsed with density: %v -> %v Mbps", p0, pN)
	}
	// ...and the floor must stay fair across BSSs.
	for _, row := range tb.Rows {
		if j := parse(t, row[4]); j < 0.9 || j > 1+1e-9 {
			t.Errorf("%s BSSs: per-BSS Jain %v outside [0.9, 1]", row[0], j)
		}
	}
}

func TestE31SpatialReuseTradeoff(t *testing.T) {
	tables := E31SpatialReuse(Quick())
	if len(tables) != 2 {
		t.Fatalf("%d tables, want floor + bonded", len(tables))
	}
	floor := tables[0]
	if len(floor.Rows) != 4 {
		t.Fatalf("%d floor rows, want off + 3 thresholds", len(floor.Rows))
	}
	// Columns: threshold, backoff, agg Mbps, per-BSS Jain, ignores, reuse tx.
	// The off row is the legacy baseline and must never touch the reuse path.
	legacyAgg := parse(t, floor.Rows[0][2])
	legacyJain := parse(t, floor.Rows[0][3])
	if parse(t, floor.Rows[0][4]) != 0 || parse(t, floor.Rows[0][5]) != 0 {
		t.Errorf("legacy row has OBSS counters: %v", floor.Rows[0])
	}
	// The acceptance bar: at least one threshold above the legacy -82 dBm
	// energy detect must strictly grow aggregate capacity while keeping the
	// per-BSS Jain index within 10% of the legacy floor's.
	wins := 0
	for _, row := range floor.Rows[1:] {
		if parse(t, row[4]) <= 0 || parse(t, row[5]) <= 0 {
			t.Errorf("threshold %s never exercised the reuse path: %v", row[0], row)
		}
		agg, jain := parse(t, row[2]), parse(t, row[3])
		if agg > legacyAgg && jain >= 0.9*legacyJain {
			wins++
		}
	}
	if wins == 0 {
		t.Errorf("no OBSS-PD threshold beat the legacy floor within the fairness bar: %v", floor.Rows)
	}
	// The coupled TX-power backoff must make itself felt: the most
	// aggressive threshold pays more fairness than the mildest.
	if mild, aggr := parse(t, floor.Rows[1][3]), parse(t, floor.Rows[3][3]); aggr >= mild {
		t.Errorf("-62 dBm Jain %v not below -72 dBm Jain %v; the reuse price vanished", aggr, mild)
	}

	// Bonded floor: the off row is clean, and a threshold whose window
	// catches no inter-BSS energy must leave the simulation untouched —
	// the ignore test is observation-only.
	bond := tables[1]
	if parse(t, bond.Rows[0][4]) != 0 || parse(t, bond.Rows[0][5]) != 0 {
		t.Errorf("bonded legacy row has OBSS counters: %v", bond.Rows[0])
	}
	if bond.Rows[1][4] == "0" && bond.Rows[1][2] != bond.Rows[0][2] {
		t.Errorf("empty reuse window perturbed the bonded floor: %v vs %v", bond.Rows[1], bond.Rows[0])
	}
	sawReuse := false
	for _, row := range bond.Rows[1:] {
		if parse(t, row[5]) > 0 {
			sawReuse = true
		}
	}
	if !sawReuse {
		t.Error("no bonded threshold ever triggered spatial reuse")
	}
}

func TestE29ClosedLoopSignature(t *testing.T) {
	tb := E29ClosedLoopQoE(Quick())[0]
	if len(tb.Rows) < 3 {
		t.Fatalf("%d rows, want at least 3 densities", len(tb.Rows))
	}
	// Columns: users/BSS, users, closed Mbps, open-loop Mbps, p95 PLT ms,
	// rebuffer ratio, mean MOS, qdrop rate. The closed loop self-limits:
	// aggregate goodput may approach the same-geometry saturated-downlink
	// ceiling but never exceed it, and the queues must not blow up.
	for _, row := range tb.Rows {
		closed, open := parse(t, row[2]), parse(t, row[3])
		if closed > open*1.02 {
			t.Errorf("%s users/BSS: closed-loop goodput %v exceeds the saturated ceiling %v",
				row[0], closed, open)
		}
		if qdrop := parse(t, row[7]); qdrop > 0.25 {
			t.Errorf("%s users/BSS: queue-drop rate %v — the transport is flooding, not self-limiting",
				row[0], qdrop)
		}
	}
	// Open-loop saturated goodput is flat at capacity — blind to density —
	// while every added user shows up in the QoE columns: p95 page-load
	// time and rebuffer ratio degrade monotonically, and voice never
	// improves with load.
	o0 := parse(t, tb.Rows[0][3])
	oN := parse(t, tb.Rows[len(tb.Rows)-1][3])
	if oN > o0*1.15 || oN < o0*0.85 {
		t.Errorf("open-loop baseline moved with density (%v -> %v Mbps); it should sit at capacity", o0, oN)
	}
	prevPLT, prevReb := 0.0, 0.0
	for _, row := range tb.Rows {
		plt, reb := parse(t, row[4]), parse(t, row[5])
		if plt < prevPLT {
			t.Errorf("%s users/BSS: p95 page-load improved under more load (%v after %v ms)",
				row[0], plt, prevPLT)
		}
		if reb < prevReb {
			t.Errorf("%s users/BSS: rebuffer ratio improved under more load (%v after %v)",
				row[0], reb, prevReb)
		}
		prevPLT, prevReb = plt, reb
	}
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if p0, pN := parse(t, first[4]), parse(t, last[4]); pN < 1.5*p0 {
		t.Errorf("p95 page-load barely moved (%v -> %v ms); densities too close to show degradation", p0, pN)
	}
	if m0, mN := parse(t, first[6]), parse(t, last[6]); mN > m0+0.2 {
		t.Errorf("voice MOS improved with load: %v -> %v", m0, mN)
	}
}

func TestE30HtLadderShape(t *testing.T) {
	// Default, not Quick: the Minstrel EWMA needs a few hundred
	// milliseconds to converge at long range, and the monotonicity
	// assertion below is about the controller's equilibrium, not its
	// transient. Still runs in well under a second.
	tables := E30HtRateAdaptation(Default())
	if len(tables) != 2 {
		t.Fatalf("%d tables, want ladder + bonding", len(tables))
	}
	ladder := tables[0]
	// Columns: distance, minstrel HT, fixed OFDM 54, fixed MCS0, gain,
	// top mode. The acceptance bar: with two streams, 40 MHz, and
	// A-MPDU, the adapted HT link must at least double the best legacy
	// rate at short range...
	first, last := ladder.Rows[0], ladder.Rows[len(ladder.Rows)-1]
	if ht, l54 := parse(t, first[1]), parse(t, first[2]); ht < 2*l54 {
		t.Errorf("short-range HT goodput %v not >= 2x legacy 54 Mbps link's %v", ht, l54)
	}
	// ...decay monotonically as the controller walks down the ladder
	// with distance (2% slack for Monte-Carlo jitter)...
	prev := math.Inf(1)
	for _, row := range ladder.Rows {
		ht := parse(t, row[1])
		if ht > prev*1.02 {
			t.Errorf("%s m: adapted goodput %v rose above the closer-in %v", row[0], ht, prev)
		}
		prev = ht
	}
	// ...and never do worse at the far edge than parking on the most
	// robust MCS (0.85 tolerance: sampling the faster rungs that keep
	// failing costs Minstrel a little airtime).
	if ht, robust := parse(t, last[1]), parse(t, last[3]); ht < 0.85*robust {
		t.Errorf("at %s m adaptation (%v Mbps) underperforms fixed MCS0 (%v Mbps)", last[0], ht, robust)
	}
	// Bonding table: doubling the channel width must pay on an
	// orthogonally-planned floor, and packing the same spans into
	// partially overlapping channels must hand part of that win back.
	bond := tables[1]
	if len(bond.Rows) != 3 {
		t.Fatalf("%d bonding rows, want 3", len(bond.Rows))
	}
	narrow, orth, overlap := parse(t, bond.Rows[0][2]), parse(t, bond.Rows[1][2]), parse(t, bond.Rows[2][2])
	if orth <= narrow {
		t.Errorf("orthogonal 40 MHz floor (%v Mbps) not above the 20 MHz floor (%v)", orth, narrow)
	}
	if overlap >= orth {
		t.Errorf("overlapped spans (%v Mbps) not below orthogonal spans (%v): partial overlap cost vanished", overlap, orth)
	}
}
