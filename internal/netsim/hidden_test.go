package netsim

import (
	"math"
	"testing"

	"repro/internal/linkmodel"
	"repro/internal/mac"
	"repro/internal/rng"
)

// The hidden-terminal problem: two stations in range of the AP but not
// of each other cannot carrier-sense each other's transmissions, so
// plain DCF collides at the AP whenever their frames overlap in time.
// The RTS/CTS exchange shrinks the vulnerable window to the short RTS
// and lets the AP's CTS silence the hidden station for the whole
// exchange. This file simulates two saturated hidden stations in
// closed form (vulnerable-window bookkeeping, no PHY, no capture): the
// reference TestHiddenPairAnchor holds netsim's HiddenPair against.

// HiddenConfig describes the scenario.
type HiddenConfig struct {
	Dcf          mac.DcfConfig
	RateMbps     float64
	PayloadBytes int
	RtsCts       bool
	RtsUs        float64 // RTS duration
	CtsUs        float64 // CTS duration
}

// DefaultHidden uses 802.11a/g timing at 54 Mbps.
func DefaultHidden(rtsCts bool) HiddenConfig {
	return HiddenConfig{
		Dcf:          mac.Dot11agDcf(),
		RateMbps:     54,
		PayloadBytes: 1500,
		RtsCts:       rtsCts,
		RtsUs:        28,
		CtsUs:        28,
	}
}

// HiddenResult summarizes the run.
type HiddenResult struct {
	Delivered   int
	Collisions  int
	Attempts    int
	Dropped     int // frames abandoned past the retry limit
	GoodputMbps float64
}

// hiddenStation is one contender's private view of time.
type hiddenStation struct {
	nextStart float64 // when its current backoff expires
	cw        int
	retries   int
}

func (s *hiddenStation) reschedule(cfg mac.DcfConfig, from float64, src *rng.Source) {
	s.nextStart = from + cfg.DIFSUs + float64(src.Intn(s.cw+1))*cfg.SlotUs
}

// fail doubles the window; past the retry limit the frame is dropped and
// the window resets (the behaviour that keeps hidden stations colliding
// instead of one capturing the channel forever).
func (s *hiddenStation) fail(cfg mac.DcfConfig) (dropped bool) {
	s.retries++
	if s.retries > cfg.RetryLimit {
		s.retries = 0
		s.cw = cfg.CWMin
		return true
	}
	s.cw = min(2*s.cw+1, cfg.CWMax)
	return false
}

func (s *hiddenStation) succeed(cfg mac.DcfConfig) {
	s.cw = cfg.CWMin
	s.retries = 0
}

// RunHiddenTerminal simulates two saturated stations that cannot hear
// each other transmitting to a common AP for durationUs.
func RunHiddenTerminal(cfg HiddenConfig, durationUs float64, src *rng.Source) HiddenResult {
	dataUs := cfg.Dcf.PlcpUs + float64(8*cfg.PayloadBytes)/cfg.RateMbps
	ackUs := cfg.Dcf.SIFSUs + cfg.Dcf.AckUs

	// Vulnerable transmission length: the whole data frame without
	// RTS/CTS, just the RTS with it.
	vulnerableUs := dataUs
	if cfg.RtsCts {
		vulnerableUs = cfg.Dcf.PlcpUs + cfg.RtsUs
	}
	// Full exchange length on success.
	exchangeUs := dataUs + ackUs
	if cfg.RtsCts {
		exchangeUs = cfg.Dcf.PlcpUs + cfg.RtsUs + cfg.Dcf.SIFSUs + cfg.CtsUs +
			cfg.Dcf.SIFSUs + dataUs + ackUs
	}

	res := HiddenResult{}
	sta := [2]*hiddenStation{{cw: cfg.Dcf.CWMin}, {cw: cfg.Dcf.CWMin}}
	for i := range sta {
		sta[i].reschedule(cfg.Dcf, 0, src)
	}

	// busyUntil is when the AP's receiver frees up from the exchange (or
	// collision) currently playing out. It is carried across iterations:
	// a deferred peer's reschedule can land before the first station's
	// exchange ends, and that frame must still find the AP busy rather
	// than being judged against a fresh channel.
	busyUntil := 0.0
	for {
		// The earlier starter transmits first.
		first, second := 0, 1
		if sta[second].nextStart < sta[first].nextStart {
			first, second = second, first
		}
		start := sta[first].nextStart
		if start > durationUs {
			break
		}
		if start < busyUntil {
			if cfg.RtsCts {
				// The AP's CTS set this station's NAV: it defers to the
				// end of the reservation, losing nothing.
				sta[first].reschedule(cfg.Dcf, busyUntil, src)
			} else {
				// The frame airs while the AP is still mid-exchange; it
				// is lost (the AP cannot receive), and it keeps jamming
				// the AP until it ends — possibly past the current
				// horizon, so the horizon advances with it.
				res.Attempts++
				if sta[first].fail(cfg.Dcf) {
					res.Dropped++
				}
				if e := start + dataUs; e > busyUntil {
					busyUntil = e
				}
				sta[first].reschedule(cfg.Dcf, start+dataUs, src)
			}
			continue
		}
		res.Attempts++
		if sta[second].nextStart < start+vulnerableUs {
			// The hidden peer starts inside the vulnerable window: both
			// transmissions are corrupted at the AP.
			res.Attempts++
			res.Collisions++
			end := start + vulnerableUs
			if e2 := sta[second].nextStart + vulnerableUs; e2 > end {
				end = e2
			}
			// Without RTS/CTS the whole (longest) data frame is wasted.
			if !cfg.RtsCts {
				end = start + dataUs
				if e2 := sta[second].nextStart + dataUs; e2 > end {
					end = e2
				}
			}
			for i := range sta {
				if sta[i].fail(cfg.Dcf) {
					res.Dropped++
				}
				sta[i].reschedule(cfg.Dcf, end, src)
			}
			busyUntil = end
			continue
		}
		// Clean start: the exchange completes for the first station. The
		// peer, if it fires before the exchange ends, hits the busy-AP
		// horizon at the top of the next iteration.
		end := start + exchangeUs
		busyUntil = end
		res.Delivered++
		sta[first].succeed(cfg.Dcf)
		sta[first].reschedule(cfg.Dcf, end, src)
	}

	res.GoodputMbps = float64(res.Delivered*8*cfg.PayloadBytes) / durationUs
	return res
}

func TestHiddenTerminalCollapse(t *testing.T) {
	// Two saturated hidden stations at a low PHY rate (long vulnerable
	// window) without RTS/CTS collide constantly and drop frames.
	src := rng.New(20)
	cfg := DefaultHidden(false)
	cfg.RateMbps = 6
	res := RunHiddenTerminal(cfg, 4e6, src)
	collisionRate := float64(res.Collisions) / float64(max(res.Attempts, 1))
	if collisionRate < 0.25 {
		t.Errorf("hidden-terminal collision rate %v suspiciously low", collisionRate)
	}
	if res.Dropped == 0 {
		t.Error("expected retry-limit drops under sustained collisions")
	}
}

func TestRtsCtsRescuesHiddenTerminals(t *testing.T) {
	// At a low PHY rate the data frame — the vulnerable window — is long,
	// which is where RTS/CTS pays for its overhead.
	src := rng.New(21)
	plainCfg := DefaultHidden(false)
	plainCfg.RateMbps = 6
	rtsCfg := DefaultHidden(true)
	rtsCfg.RateMbps = 6
	plain := RunHiddenTerminal(plainCfg, 4e6, src.Split())
	rts := RunHiddenTerminal(rtsCfg, 4e6, src.Split())
	if rts.GoodputMbps <= plain.GoodputMbps {
		t.Errorf("RTS/CTS goodput %v not above plain %v at 6 Mbps", rts.GoodputMbps, plain.GoodputMbps)
	}
	plainColl := float64(plain.Collisions) / float64(max(plain.Attempts, 1))
	rtsColl := float64(rts.Collisions) / float64(max(rts.Attempts, 1))
	if rtsColl >= plainColl {
		t.Errorf("RTS/CTS collision rate %v not below plain %v", rtsColl, plainColl)
	}
}

func TestHiddenTerminalDelivers(t *testing.T) {
	src := rng.New(22)
	res := RunHiddenTerminal(DefaultHidden(true), 1e6, src)
	if res.Delivered == 0 {
		t.Error("no frames delivered with RTS/CTS")
	}
	if res.GoodputMbps <= 0 || res.GoodputMbps > 54 {
		t.Errorf("goodput %v out of range", res.GoodputMbps)
	}
}

func TestHiddenBusyHorizonSerializesDeliveries(t *testing.T) {
	// Regression: the deferred peer used to be rescheduled from
	// nextStart+dataUs, which with a short data frame and a long ACK
	// window lands inside the first station's exchange; the next
	// iteration then judged the peer's frame clean while the AP was
	// still mid-exchange, delivering overlapping exchanges. The AP can
	// serve at most one exchange at a time, so delivered exchanges must
	// fit the run duration end to end.
	cfg := HiddenConfig{
		Dcf: mac.DcfConfig{SlotUs: 9, SIFSUs: 16, DIFSUs: 10, CWMin: 31, CWMax: 63,
			AckUs: 1000, PlcpUs: 4, RetryLimit: 7},
		RateMbps:     54,
		PayloadBytes: 50,
	}
	const durationUs = 1e6
	res := RunHiddenTerminal(cfg, durationUs, rng.New(31))
	dataUs := cfg.Dcf.PlcpUs + float64(8*cfg.PayloadBytes)/cfg.RateMbps
	exchangeUs := dataUs + cfg.Dcf.SIFSUs + cfg.Dcf.AckUs
	maxDeliveries := int(durationUs/exchangeUs) + 1
	if res.Delivered > maxDeliveries {
		t.Errorf("%d deliveries but only %d serialized exchanges fit %v us",
			res.Delivered, maxDeliveries, durationUs)
	}
	if res.Delivered == 0 {
		t.Error("no deliveries at all")
	}
}

// TestHiddenPairAnchor holds netsim's HiddenPair against the closed
// form at E17's rates: two saturated stations 300 m apart, 1500 B
// frames, and a one-entry rate table that pins the PHY rate (OFDM 6's
// PER curve at the row's rate, so noise losses are near zero at the
// stations' 7.8 dB SNR, as in the closed form, which has no PHY). With
// RTS/CTS both models put the CTS-set NAV on the hidden peer, so
// netsim's goodput must sit within 4% of the closed form, and the
// "RTS wins" verdict must agree. Plain DCF is logged but not pinned:
// netsim reads more plain goodput at the low rates (+65% at 6 Mbps),
// a gap whose cause is not established.
func TestHiddenPairAnchor(t *testing.T) {
	const (
		payload = 1500
		seeds   = 4
		durUs   = 4e6
		tol     = 0.04
	)
	for _, rate := range []float64{6, 12, 24, 54} {
		mode := linkmodel.OfdmModes()[0]
		mode.RateMbps = rate
		plain := DefaultConfig()
		plain.Modes = []linkmodel.Mode{mode}
		rts := plain
		rts.RtsThresholdBytes = 1 // RTS/CTS before every data frame
		simulated := func(c Config) float64 {
			jobs := SeedSweep("hidden", HiddenPair(c, 300, payload), durUs, 2400, seeds)
			return MeanAggGoodput(ScenarioRunner{Workers: 2}.RunAll(jobs))
		}
		closedForm := func(rtsCts bool) float64 {
			hc := DefaultHidden(rtsCts)
			hc.RateMbps = rate
			hc.PayloadBytes = payload
			sum := 0.0
			for s := range seeds {
				sum += RunHiddenTerminal(hc, durUs, rng.New(2400+int64(s)+1)).GoodputMbps
			}
			return sum / seeds
		}
		gotPlain, gotRts := simulated(plain), simulated(rts)
		wantPlain, wantRts := closedForm(false), closedForm(true)
		dev := gotRts/wantRts - 1
		t.Logf("%2.0f Mbps: RTS/CTS netsim %6.3f, closed form %6.3f (%+.1f%%); plain netsim %6.3f, closed form %6.3f (%+.1f%%)",
			rate, gotRts, wantRts, 100*dev, gotPlain, wantPlain, 100*(gotPlain/wantPlain-1))
		if math.Abs(dev) > tol {
			t.Errorf("%g Mbps: RTS/CTS goodput %.3f Mbps is %+.1f%% off the closed form's %.3f Mbps (want within %.0f%%)",
				rate, gotRts, 100*dev, wantRts, 100*tol)
		}
		if gotWins, wantWins := gotRts > gotPlain, wantRts > wantPlain; gotWins != wantWins {
			t.Errorf("%g Mbps: netsim says RTS wins = %v, the closed form %v", rate, gotWins, wantWins)
		}
	}
}
