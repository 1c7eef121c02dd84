package mac

import (
	"math"
	"testing"

	"repro/internal/linkmodel"
	"repro/internal/power"
	"repro/internal/rng"
)

func TestDot11eEdcaTxopDefaults(t *testing.T) {
	// The standard's default TXOP limits: voice and video burst, best
	// effort and background hold one exchange per access; the DSSS/CCK
	// column doubles the OFDM values.
	ag := Dot11eEdca(Dot11agDcf())
	if ag[AC_VO].TxopLimitUs != 1504 || ag[AC_VI].TxopLimitUs != 3008 {
		t.Errorf("a/g TXOP limits VO %v VI %v, want 1504/3008",
			ag[AC_VO].TxopLimitUs, ag[AC_VI].TxopLimitUs)
	}
	if ag[AC_BE].TxopLimitUs != 0 || ag[AC_BK].TxopLimitUs != 0 {
		t.Errorf("BE/BK TXOP limits %v/%v, want single-exchange 0",
			ag[AC_BE].TxopLimitUs, ag[AC_BK].TxopLimitUs)
	}
	b := Dot11eEdca(Dot11bDcf())
	if b[AC_VO].TxopLimitUs != 3264 || b[AC_VI].TxopLimitUs != 6016 {
		t.Errorf("11b TXOP limits VO %v VI %v, want 3264/6016",
			b[AC_VO].TxopLimitUs, b[AC_VI].TxopLimitUs)
	}
}

func TestArfAdaptsUpAtHighSNR(t *testing.T) {
	src := rng.New(8)
	modes := linkmodel.OfdmModes()
	res := RunArf(DefaultArf(), modes, 35, false, 2000, 1500, src)
	if res.FinalMode.RateMbps < 48 {
		t.Errorf("at 35 dB ARF settled on %v", res.FinalMode.Name)
	}
	if res.FramesOK < res.FramesSent*9/10 {
		t.Errorf("delivery %d/%d too low at high SNR", res.FramesOK, res.FramesSent)
	}
}

func TestArfAdaptsDownAtLowSNR(t *testing.T) {
	src := rng.New(9)
	modes := linkmodel.OfdmModes()
	res := RunArf(DefaultArf(), modes, 8, false, 2000, 1500, src)
	// The 18 Mbps threshold sits at ~7.6 dB in the analytic model, so ARF
	// should hold at or below it; 24 Mbps (threshold ~9.8 dB) must fail.
	if res.FinalMode.RateMbps > 18 {
		t.Errorf("at 8 dB ARF settled on %v", res.FinalMode.Name)
	}
}

func TestArfBeatsFixedWorstChoice(t *testing.T) {
	// Adaptation should deliver more than pinning the top rate at mid SNR.
	src := rng.New(10)
	modes := linkmodel.OfdmModes()
	const snr = 15.0
	adaptive := RunArf(DefaultArf(), modes, snr, true, 3000, 1500, src.Split())
	fixedTop := RunArf(DefaultArf(), modes[7:], snr, true, 3000, 1500, src.Split())
	if adaptive.GoodputMbps <= fixedTop.GoodputMbps {
		t.Errorf("ARF goodput %v not above fixed-54 %v", adaptive.GoodputMbps, fixedTop.GoodputMbps)
	}
}

func TestPsmSavesEnergy(t *testing.T) {
	src := rng.New(11)
	cfg := DefaultPsm()
	psm := RunPsm(cfg, 60_000, src.Split())
	cam := RunCam(cfg, 60_000, src.Split())
	if psm.EnergyJ >= cam.EnergyJ {
		t.Errorf("PSM energy %v not below CAM %v", psm.EnergyJ, cam.EnergyJ)
	}
	if ratio := cam.EnergyJ / psm.EnergyJ; ratio < 2 {
		t.Errorf("PSM saving ratio %v, expected substantial", ratio)
	}
}

func TestPsmCostsLatency(t *testing.T) {
	src := rng.New(12)
	cfg := DefaultPsm()
	psm := RunPsm(cfg, 60_000, src.Split())
	cam := RunCam(cfg, 60_000, src.Split())
	if psm.AvgLatencyMs <= cam.AvgLatencyMs {
		t.Errorf("PSM latency %v not above CAM %v", psm.AvgLatencyMs, cam.AvgLatencyMs)
	}
	// Mean wait under uniform arrivals is about half the beacon interval.
	want := cfg.BeaconIntervalMs / 2
	if math.Abs(psm.AvgLatencyMs-want) > want/2 {
		t.Errorf("PSM latency %v ms, want ~%v", psm.AvgLatencyMs, want)
	}
}

func TestPsmListenIntervalTradesLatencyForEnergy(t *testing.T) {
	src := rng.New(13)
	cfg := DefaultPsm()
	cfg.ListenInterval = 1
	every := RunPsm(cfg, 120_000, src.Split())
	cfg.ListenInterval = 5
	sparse := RunPsm(cfg, 120_000, src.Split())
	if sparse.AvgLatencyMs <= every.AvgLatencyMs {
		t.Errorf("listen interval 5 latency %v not above interval 1 %v",
			sparse.AvgLatencyMs, every.AvgLatencyMs)
	}
	if sparse.EnergyPerFrame > every.EnergyPerFrame {
		t.Errorf("sparse wake energy/frame %v above %v", sparse.EnergyPerFrame, every.EnergyPerFrame)
	}
}

func TestPsmDeliversEverything(t *testing.T) {
	src := rng.New(14)
	cfg := DefaultPsm()
	psm := RunPsm(cfg, 60_000, src)
	expected := cfg.ArrivalPerSecond * 60
	if float64(psm.Delivered) < expected*0.7 || float64(psm.Delivered) > expected*1.3 {
		t.Errorf("delivered %d, expected ~%v", psm.Delivered, expected)
	}
}

func TestCamMultiChainCostsMore(t *testing.T) {
	src := rng.New(15)
	cfg := DefaultPsm()
	cfg.Radio = power.RadioConfig{TxChains: 4, RxChains: 4, Streams: 4, OutputW: 0.05, PaprDB: 10}
	cfg.ChainPolicy = power.AlwaysOn
	four := RunCam(cfg, 60_000, src.Split())
	cfg.ChainPolicy = power.SniffThenWake
	one := RunCam(cfg, 60_000, src.Split())
	if four.EnergyJ <= one.EnergyJ {
		t.Errorf("4-chain CAM energy %v not above single-chain listen %v", four.EnergyJ, one.EnergyJ)
	}
}

// ArfResult reports the outcome of an adaptation run.
type ArfResult struct {
	FramesSent    int
	FramesOK      int
	GoodputMbps   float64 // delivered payload over airtime at chosen rates
	FinalMode     linkmodel.Mode
	ModeHistogram map[string]int // frames attempted per mode name
}

// RunArf sends nFrames over a link with the given mean SNR (fading or
// AWGN per the flag), adapting across the mode set through an
// ArfController. It is the closed-form link loop the ARF tests drive;
// netsim runs the controller frame by frame.
func RunArf(cfg ArfConfig, modes []linkmodel.Mode, meanSnrDB float64, fading bool, nFrames, payloadBytes int, src *rng.Source) ArfResult {
	if len(modes) == 0 {
		panic("mac: no modes")
	}
	ctl := NewArfController(cfg, len(modes), 0)
	res := ArfResult{ModeHistogram: map[string]int{}}
	var airtimeUs, deliveredBits float64
	for f := 0; f < nFrames; f++ {
		m := modes[ctl.ModeIndex()]
		res.ModeHistogram[m.Name]++
		res.FramesSent++
		airtimeUs += float64(8*payloadBytes)/m.RateMbps + 20 // PLCP overhead
		per := m.PER(meanSnrDB, fading)
		if src.Float64() < per {
			ctl.OnFailure()
			continue
		}
		res.FramesOK++
		deliveredBits += float64(8 * payloadBytes)
		ctl.OnSuccess()
	}
	if airtimeUs > 0 {
		res.GoodputMbps = deliveredBits / airtimeUs
	}
	res.FinalMode = modes[ctl.ModeIndex()]
	return res
}

// runArfLegacy reimplements the pre-fix ARF loop (no probe-failure
// rule: even the first frame after an up-shift needs DownAfter
// consecutive failures to fall back) as the baseline for the
// regression test below.
func runArfLegacy(cfg ArfConfig, modes []linkmodel.Mode, meanSnrDB float64, nFrames, payloadBytes int, src *rng.Source) float64 {
	idx, succRun, failRun := 0, 0, 0
	var airtimeUs, deliveredBits float64
	for f := 0; f < nFrames; f++ {
		m := modes[idx]
		airtimeUs += float64(8*payloadBytes)/m.RateMbps + 20
		if src.Float64() < m.PER(meanSnrDB, false) {
			failRun++
			succRun = 0
			if failRun >= cfg.DownAfter && idx > 0 {
				idx--
				failRun = 0
			}
			continue
		}
		deliveredBits += float64(8 * payloadBytes)
		succRun++
		failRun = 0
		if succRun >= cfg.UpAfter && idx < len(modes)-1 {
			idx++
			succRun = 0
		}
	}
	return deliveredBits / airtimeUs
}

func TestArfProbeFailureFallsBackImmediately(t *testing.T) {
	cfg := DefaultArf()
	ctl := NewArfController(cfg, 8, 3)
	for i := 0; i < cfg.UpAfter; i++ {
		ctl.OnSuccess()
	}
	if ctl.ModeIndex() != 4 || !ctl.Probing() {
		t.Fatalf("after %d successes: idx %d probing %v, want 4/true",
			cfg.UpAfter, ctl.ModeIndex(), ctl.Probing())
	}
	// One failed probe drops straight back, without waiting DownAfter.
	ctl.OnFailure()
	if ctl.ModeIndex() != 3 || ctl.Probing() {
		t.Errorf("failed probe left idx %d probing %v, want 3/false", ctl.ModeIndex(), ctl.Probing())
	}
	// Off probe, a single failure must NOT fall back; DownAfter must.
	ctl.OnFailure()
	if ctl.ModeIndex() != 3 {
		t.Errorf("single non-probe failure moved idx to %d", ctl.ModeIndex())
	}
	ctl.OnFailure()
	if ctl.ModeIndex() != 2 {
		t.Errorf("%d consecutive failures left idx %d, want 2", cfg.DownAfter, ctl.ModeIndex())
	}
}

func TestArfProbeRuleImprovesGoodputNearWaterfall(t *testing.T) {
	// 8 dB sits just above the 18 Mbps threshold (~7.6 dB) and far below
	// 24 Mbps (~9.8 dB): up-probes fail ~80% of the time. Immediate
	// probe fallback wastes one frame per excursion where the legacy
	// rule burned DownAfter, so goodput improves.
	src := rng.New(30)
	modes := linkmodel.OfdmModes()
	const snr, frames = 8.0, 20000
	fixed := RunArf(DefaultArf(), modes, snr, false, frames, 1500, src.Split())
	legacy := runArfLegacy(DefaultArf(), modes, snr, frames, 1500, src.Split())
	if fixed.GoodputMbps <= legacy {
		t.Errorf("probe-fallback goodput %.3f not above legacy %.3f",
			fixed.GoodputMbps, legacy)
	}
	// With the rule, each excursion above the waterfall lasts a single
	// probe frame, so the failing mode gets a small share of attempts.
	hi := fixed.ModeHistogram["OFDM 24 Mbps"]
	if hi > frames/5 {
		t.Errorf("%d/%d attempts burned at the failing rate", hi, frames)
	}
}
