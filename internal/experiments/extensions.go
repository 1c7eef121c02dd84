package experiments

import (
	"math"

	"repro/internal/acquire"
	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/linkmodel"
	"repro/internal/netsim"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/spread"
)

// The paper closes by arguing future standards must be designed for
// efficiency and low power from the outset. E15 and E16 are extension
// exhibits in that spirit (no numeric claim in the paper backs them):
// E15 quantifies the MAC-efficiency collapse that made A-MPDU
// aggregation mandatory in 802.11n, and E16 measures the acquisition
// front-end (detection, timing, CFO) that every real receiver needs but
// simulation papers usually assume away.

// E15Aggregation sweeps PHY rate with and without frame aggregation:
// per-frame DCF overhead is constant, so MAC efficiency collapses as the
// PHY accelerates unless frames amortize it. Each cell is one saturated
// station on a clean 5 m netsim link; a one-entry rate table (the OFDM
// 54 Mbps mode at the sweep rate) pins the PHY rate, as in E26.
// Goodput is measured over whole exchanges (wholeExchangeGoodput).
func E15Aggregation(cfg Config) []report.Table {
	t := report.Table{
		ID:     "E15",
		Title:  "Saturated single-station MAC goodput vs PHY rate (1500 B frames)",
		Note:   "extension: the overhead wall that forced A-MPDU into 802.11n",
		Header: []string{"PHY Mbps", "goodput Mbps", "efficiency", "goodput 32-agg", "efficiency 32-agg"},
	}
	const simUs = 400000
	agg := netsim.DefaultAggregation()
	for i, rate := range []float64{11, 54, 150, 300, 600} {
		mode := modeAt(54)
		mode.RateMbps = rate
		plain := netsim.DefaultConfig()
		plain.Modes = []linkmodel.Mode{mode}
		aggregated := plain
		aggregated.Aggregation = &agg
		seed := cfg.Seed*1500 + int64(i)
		gPlain := wholeExchangeGoodput(netsim.SingleLink(plain, 5, 1500)(seed), simUs)
		gAgg := wholeExchangeGoodput(netsim.SingleLink(aggregated, 5, 1500)(seed), simUs)
		t.AddRow(rate, gPlain, gPlain/rate, gAgg, gAgg/rate)
	}
	return []report.Table{t}
}

// wholeExchangeGoodput runs n for simUs and returns its goodput over
// whole exchanges: delivered bits over the time from the start to the
// end of the last judged data exchange. A 32 × 1500 B burst at 11 Mbps
// holds the air for about 35 ms, so a horizon that cut one would count
// the cut burst as lost time.
func wholeExchangeGoodput(n *netsim.Network, simUs float64) float64 {
	var last lastExchange
	n.AttachProbe(&last)
	return n.Run(simUs).AggGoodputMbps * simUs / last.endUs
}

// lastExchange notes when the last judged data exchange (data and its
// ACK or Block-ACK) left the air.
type lastExchange struct{ endUs float64 }

func (p *lastExchange) OnEvent(ev netsim.Event) {
	if ev.Kind == netsim.EvRxOutcome && ev.Frame == netsim.FrameData {
		p.endUs = ev.TimeUs
	}
}

// E16Acquisition measures the burst front-end: probability of detecting,
// synchronizing and decoding a frame at a random unknown offset with a
// random residual CFO, versus SNR; plus the false-alarm rate on noise.
func E16Acquisition(cfg Config) []report.Table {
	src := rng.New(cfg.Seed)
	p := mustOfdm(12)
	t := report.Table{
		ID:     "E16",
		Title:  "Burst acquisition: detect + sync + decode rate vs SNR (random offset, CFO up to 1%)",
		Note:   "extension: front-end the genie-synchronized experiments assume",
		Header: []string{"SNR dB", "decode rate"},
	}
	for _, snr := range []float64{0, 3, 6, 9, 12, 15} {
		noiseVar := channel.NoiseVarFromSNRdB(snr)
		okCount := 0
		for f := 0; f < cfg.Frames; f++ {
			payload := src.Bytes(cfg.PayloadBytes)
			fo := (src.Float64() - 0.5) * 0.02
			burst := acquire.ApplyCFO(p.TxBurst(payload), fo)
			offset := src.Intn(400)
			capture := src.ComplexGaussianVec(offset+len(burst)+200, noiseVar)
			for i, v := range burst {
				capture[offset+i] += v
			}
			if got, ok := p.RxBurst(capture, noiseVar); ok && byteEq(got, payload) {
				okCount++
			}
		}
		t.AddRow(snr, float64(okCount)/float64(cfg.Frames))
	}

	fa := report.Table{
		ID:     "E16b",
		Title:  "False alarms on noise-only captures",
		Header: []string{"captures", "false detections"},
	}
	falseAlarms := 0
	trials := cfg.Frames * 4
	for i := 0; i < trials; i++ {
		capture := src.ComplexGaussianVec(1500, 1)
		if acquire.Detect(capture, 0.6).Found {
			falseAlarms++
		}
	}
	fa.AddRow(trials, falseAlarms)
	return []report.Table{t, fa}
}

// E17HiddenTerminal measures the hidden-terminal collapse and the
// RTS/CTS rescue: two saturated stations out of each other's carrier
// sense range, sharing an AP (netsim.HiddenPair, 300 m apart). A
// one-entry rate table pins the PHY rate: OFDM 6 Mbps at the row's
// rate, whose PER curve keeps noise losses near zero at the stations'
// 7.8 dB SNR, so the rows differ only in the length of the vulnerable
// data frame. The RTS, CTS and the NAV they set come from netsim.
func E17HiddenTerminal(cfg Config) []report.Table {
	t := report.Table{
		ID:     "E17",
		Title:  "Hidden terminals: goodput (Mbps) vs PHY rate, 2 saturated stations, 1500 B",
		Note:   "extension: RTS/CTS pays when the data frame (the vulnerable window) is long",
		Header: []string{"PHY Mbps", "goodput plain", "collision rate", "goodput RTS/CTS", "collision rate", "RTS wins"},
	}
	const simUs = 4e6
	for _, rate := range []float64{6, 12, 24, 54} {
		mode := modeAt(6)
		mode.RateMbps = rate
		plain := netsim.DefaultConfig()
		plain.Modes = []linkmodel.Mode{mode}
		rts := plain
		rts.RtsThresholdBytes = 1 // RTS/CTS before every data frame
		plainMbps, plainColl := hiddenSweep(plain, 1500, simUs, cfg.Seed*1700)
		rtsMbps, rtsColl := hiddenSweep(rts, 1500, simUs, cfg.Seed*1700)
		t.AddRow(rate, plainMbps, plainColl, rtsMbps, rtsColl, okString(rtsMbps > plainMbps))
	}
	return []report.Table{t}
}

// E18Signature reproduces C2's spectral claim: "a combined modulation
// and coding scheme known as CCK was adopted to increase rate while
// maintaining a DSSS like signature to other users of the unlicensed
// band". It compares the measured power spectral densities of the three
// 2.4 GHz waveforms: DSSS and CCK should overlap almost exactly (both
// 11 Mchip/s), while OFDM fills the channel differently.
func E18Signature(cfg Config) []report.Table {
	src := rng.New(cfg.Seed)
	payload := src.Bytes(cfg.PayloadBytes * 8)
	const seg = 64

	dsssTx := mustDsss(2).TxFrame(payload)
	cckTx := mustCck(11).TxFrame(payload)
	ofdmTx := mustOfdm(54).TxFrame(payload)

	psdD := dsp.WelchPSD(dsssTx, seg)
	psdC := dsp.WelchPSD(cckTx, seg)
	psdO := dsp.WelchPSD(ofdmTx, seg)

	t := report.Table{
		ID:     "E18",
		Title:  "Occupied bandwidth (99% power) and spectral signatures",
		Note:   "CCK ... increase rate while maintaining a DSSS like signature",
		Header: []string{"waveform", "sample rate MHz", "occupied MHz (99%)"},
	}
	// DSSS/CCK sample at the 11 Mchip/s rate; OFDM at 20 MHz.
	add := func(name string, psd []float64, fs float64) {
		bins := dsp.OccupiedBandwidthBins(psd, 0.99)
		t.AddRow(name, fs, float64(bins)/seg*fs)
	}
	add("DSSS 2 Mbps", psdD, 11)
	add("CCK 11 Mbps", psdC, 11)
	add("OFDM 54 Mbps", psdO, 20)

	match := report.Table{
		ID:     "E18b",
		Title:  "Spectral-shape correlation between waveforms",
		Header: []string{"pair", "correlation"},
	}
	match.AddRow("DSSS vs CCK", dsp.SpectralCorrelation(psdD, psdC))
	match.AddRow("DSSS vs OFDM", dsp.SpectralCorrelation(psdD, psdO))
	return []report.Table{t, match}
}

// E19Anomaly demonstrates the DCF performance anomaly: one station stuck
// at a legacy rate consumes most of the airtime, dragging every fast
// station down toward its speed — the coexistence cost of the
// generational ladder E1 celebrates. Each row is one netsim run of
// e19Network; its fast column is the mean goodput of the three fast
// stations.
func E19Anomaly(cfg Config) []report.Table {
	t := report.Table{
		ID:     "E19",
		Title:  "DCF performance anomaly: 3 fast stations + 1 legacy station",
		Note:   "extension: equal-airtime-attempt MAC shares throughput, not airtime",
		Header: []string{"legacy rate", "fast goodput each", "legacy goodput", "total", "legacy airtime"},
	}
	const simUs = 2e6
	d := netsim.DefaultConfig().Dcf // e19Network's MAC timing
	for i, legacyRate := range e19LegacyRates {
		res := e19Network(legacyRate, cfg.Seed*1900+int64(i)).Run(simUs)
		// The legacy airtime column is the medium time the legacy
		// station's delivered exchanges held.
		exchangeUs := d.PlcpUs + 8*1500/legacyRate + d.SIFSUs + d.AckUs
		legacy := res.Flows[3]
		fast := (res.Flows[0].GoodputMbps + res.Flows[1].GoodputMbps + res.Flows[2].GoodputMbps) / 3
		t.AddRow(legacyRate,
			fast,
			legacy.GoodputMbps,
			res.AggGoodputMbps,
			float64(legacy.Delivered)*exchangeUs/simUs)
	}
	return []report.Table{t}
}

// e19LegacyRates are E19's rows: the rate of the slow station.
var e19LegacyRates = []float64{54, 11, 2, 1}

// e19Network is one E19 row: three saturated OFDM 54 Mbps stations and
// one at legacyRate (DSSS 1/2, CCK 11, or 54 for the all-fast
// baseline) uplinking 1500 B frames to one AP, on a two-entry rate
// table {legacy mode, OFDM 54}. Every station sits 6 dB above its own
// mode's SNR requirement, so median-SNR selection gives each exactly
// its mode. The fast stations stand on the AP–legacy ray, so all four
// hear each other inside the −82 dBm carrier-sense range. Their power
// at the AP exceeds the legacy station's by at most 16.7 dB, below
// OFDM 54's 18.35 dB requirement, so a collision with the legacy frame
// is almost never captured.
func e19Network(legacyRate float64, seed int64) *netsim.Network {
	fast, legacy := modeAt(54), modeAt(legacyRate)
	c := netsim.DefaultConfig()
	c.Modes = []linkmodel.Mode{fast}
	if legacy != fast {
		c.Modes = []linkmodel.Mode{legacy, fast}
	}
	n := netsim.New(c, seed)
	b := n.AddAP("AP", 0, 0, 1)
	add := func(name string, m linkmodel.Mode) {
		st := n.AddStation(b, name, distForSNR(c, m.SnrReqDB+6), 0)
		n.Add(netsim.FlowSpec{From: st, AC: netsim.AC_BE, Gen: netsim.Saturated{PayloadBytes: 1500}})
	}
	add("fast1", fast)
	add("fast2", fast)
	add("fast3", fast)
	add("legacy", legacy)
	return n
}

// distForSNR is the distance at which c's link budget leaves snrDB
// above the noise floor: LinkBudget.SNRdBAt inverted by bisection over
// the monotone path-loss curve.
func distForSNR(c netsim.Config, snrDB float64) float64 {
	lo, hi := 1.0, 1e4
	for range 60 {
		mid := math.Sqrt(lo * hi)
		if c.Budget.SNRdBAt(c.PathLoss, mid) >= snrDB {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// E20EnergyPerBit closes the loop on the paper's conclusion: each
// generation draws more device power, but the rate grows faster, so the
// energy cost of a delivered bit falls by orders of magnitude.
func E20EnergyPerBit(cfg Config) []report.Table {
	_ = cfg
	d := power.DefaultDevice()
	t := report.Table{
		ID:     "E20",
		Title:  "Transmit energy per bit by generation (50 mW radiated)",
		Note:   "power demand grows per device, but rate grows faster: nJ/bit collapses",
		Header: []string{"generation", "rate Mbps", "device TX W", "nJ per bit"},
	}
	rows := []struct {
		name   string
		rate   float64
		config power.RadioConfig
	}{
		{"802.11 DSSS", 2, power.RadioConfig{TxChains: 1, RxChains: 1, Streams: 1, OutputW: 0.05, PaprDB: 0}},
		{"802.11b CCK", 11, power.RadioConfig{TxChains: 1, RxChains: 1, Streams: 1, OutputW: 0.05, PaprDB: 0}},
		{"802.11a/g OFDM", 54, power.RadioConfig{TxChains: 1, RxChains: 1, Streams: 1, OutputW: 0.05, PaprDB: 10}},
		{"802.11n 4x4", 600, power.RadioConfig{TxChains: 4, RxChains: 4, Streams: 4, OutputW: 0.05, PaprDB: 12}},
	}
	for _, r := range rows {
		t.AddRow(r.name, r.rate, d.TxPowerW(r.config), d.EnergyPerBit(r.config, r.rate)*1e9)
	}
	return []report.Table{t}
}

// E21Coexistence reproduces the paper's opening regulatory claim: the
// FCC's spread-spectrum mandate was written "to ensure fair and equal
// access". Co-located unsynchronized FHSS networks share the 79-channel
// band with graceful, fair degradation rather than capture.
func E21Coexistence(cfg Config) []report.Table {
	src := rng.New(cfg.Seed)
	dwells := cfg.Frames * 800
	t := report.Table{
		ID:     "E21",
		Title:  "Co-located FHSS networks sharing 79 hop channels",
		Note:   "rules ... written primarily to ensure fair and equal access (via spread spectrum)",
		Header: []string{"networks", "mean success", "min", "max", "aggregate x 1 network"},
	}
	for _, n := range []int{1, 2, 5, 10, 20, 40} {
		shares := spread.CoexistenceThroughput(n, dwells, src)
		lo, hi, sum := 1.0, 0.0, 0.0
		for _, s := range shares {
			sum += s
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		t.AddRow(n, sum/float64(n), lo, hi, report.FormatRatio(sum))
	}
	return []report.Table{t}
}

func byteEq(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
