package netsim

import (
	"fmt"
	"math"
	"testing"
)

// run1 is a small saturated single-BSS network for quick checks.
func run1(seed int64, stations int, durationUs float64) Result {
	build := DenseGrid(DefaultConfig(), 1, stations, []int{1}, 40, 1000)
	return build(seed).Run(durationUs)
}

func TestFixedSeedIsBitForBitDeterministic(t *testing.T) {
	a := run1(7, 5, 200000)
	b := run1(7, 5, 200000)
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c := run1(8, 5, 200000)
	if fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", c) {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestSingleStationSaturatedGoodput(t *testing.T) {
	res := run1(1, 1, 500000)
	// One station 10m from the AP runs 54 Mbps. A 1000 B exchange is
	// PLCP 20 + 148 + SIFS 16 + ACK 44 ≈ 228 us plus DIFS and ~7.5
	// slots of backoff ≈ 330 us, so ~24 Mbps goodput. Accept a band.
	if res.AggGoodputMbps < 18 || res.AggGoodputMbps > 30 {
		t.Errorf("single-station goodput %.1f Mbps, want ~24", res.AggGoodputMbps)
	}
	if res.Collisions != 0 {
		t.Errorf("%d collisions with one station", res.Collisions)
	}
	// Attempts may exceed judged frames by the exchanges still in
	// flight when the horizon cuts the run.
	inFlight := res.Attempts - (res.Delivered + res.Collisions + res.NoiseLosses)
	if res.Delivered == 0 || inFlight < 0 || inFlight > 1 {
		t.Errorf("attempt accounting off: %+v", res)
	}
}

func TestContentionCausesCollisionsAndSharesFairly(t *testing.T) {
	res := run1(3, 8, 500000)
	if res.Collisions == 0 {
		t.Error("8 saturated stations should collide sometimes")
	}
	if jain := JainIndex(Goodputs(res.Flows)); jain < 0.9 {
		t.Errorf("equal-rate stations got Jain %.3f, want ≈1", jain)
	}
	single := run1(3, 1, 500000)
	if res.AggGoodputMbps > single.AggGoodputMbps*1.05 {
		t.Errorf("contention increased aggregate goodput: %.1f vs %.1f",
			res.AggGoodputMbps, single.AggGoodputMbps)
	}
}

func TestCoChannelBSSInterfere(t *testing.T) {
	cfg := DefaultConfig()
	const dur = 400000
	same := DenseGrid(cfg, 2, 4, []int{1}, 30, 1000)(5).Run(dur)
	split := DenseGrid(cfg, 2, 4, []int{1, 6}, 30, 1000)(5).Run(dur)
	// Orthogonal channels should roughly double capacity over one
	// shared collision domain.
	if split.AggGoodputMbps < same.AggGoodputMbps*1.5 {
		t.Errorf("channel split %.1f Mbps vs co-channel %.1f Mbps; expected ~2x",
			split.AggGoodputMbps, same.AggGoodputMbps)
	}
	if same.Collisions == 0 {
		t.Error("co-channel BSSs never collided")
	}
}

func TestHiddenNodesCollideWithoutCarrierSense(t *testing.T) {
	cfg := DefaultConfig()
	const dur = 400000
	// 300 m apart: each station decodes the AP (~150 m) but receives
	// its peer far below the -82 dBm carrier-sense threshold.
	hidden := HiddenPair(cfg, 300, 1000)(2).Run(dur)
	exposed := HiddenPair(cfg, 40, 1000)(2).Run(dur)
	hr := float64(hidden.Collisions) / float64(hidden.Attempts)
	er := float64(exposed.Collisions) / float64(exposed.Attempts)
	if hr < 0.25 {
		t.Errorf("hidden pair collision rate %.2f, want heavy collisions", hr)
	}
	if er > hr/3 {
		t.Errorf("in-range pair collision rate %.2f vs hidden %.2f; carrier sense should help", er, hr)
	}
	if hidden.AggGoodputMbps >= exposed.AggGoodputMbps {
		t.Errorf("hidden goodput %.1f should trail exposed %.1f",
			hidden.AggGoodputMbps, exposed.AggGoodputMbps)
	}
}

func TestOverloadDropsAtTheQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueLimit = 8
	n := New(cfg, 4)
	b := n.AddAP("AP", 0, 0, 1)
	st := n.AddStation(b, "sta", 10, 0)
	// ~96 Mbps offered into a ~24 Mbps link must shed most packets.
	n.Add(FlowSpec{From: st, AC: AC_BE, Gen: CBR{PayloadBytes: 1200, IntervalUs: 100}})
	res := n.Run(300000)
	fs := res.Flows[0]
	if fs.QueueDrops == 0 {
		t.Errorf("no queue drops under 4x overload: %+v", fs)
	}
	if fs.DropRate() < 0.5 {
		t.Errorf("drop rate %.2f, want most of the overload shed", fs.DropRate())
	}
}

func TestTrafficMixDelivers(t *testing.T) {
	res := TrafficMix(DefaultConfig(), 4, 2, 1, 2.0)(6).Run(500000)
	classes := map[string]int{}
	for _, f := range res.Flows {
		classes[f.Class] += f.Delivered
	}
	for _, class := range []string{"cbr", "poisson", "onoff"} {
		if classes[class] == 0 {
			t.Errorf("class %s delivered nothing: %v", class, classes)
		}
	}
	// Lightly loaded voice should see sub-10ms mean delay.
	for _, f := range res.Flows {
		if f.Class == "cbr" && f.MeanDelayUs > 10000 {
			t.Errorf("voice flow %s delay %.0f us under light load", f.Label, f.MeanDelayUs)
		}
	}
}

func TestDownlinkFlow(t *testing.T) {
	n := New(DefaultConfig(), 9)
	b := n.AddAP("AP", 0, 0, 1)
	st := n.AddStation(b, "sta", 8, 0)
	n.Add(FlowSpec{From: b.AP, To: st, AC: AC_BE, Gen: Poisson{PayloadBytes: 800, PktPerSec: 500}})
	res := n.Run(400000)
	if res.Flows[0].Delivered == 0 {
		t.Fatalf("downlink delivered nothing: %+v", res.Flows[0])
	}
}

func TestRoamingReassociatesToStrongerAP(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RoamIntervalUs = 100000
	// 2 m per 100 ms scan = 20 m/s walk: ends 100 m from AP1 and 20 m
	// from AP2, far past the 3 dB reassociation hysteresis.
	res := RoamingWalk(cfg, 120, 20)(3).Run(5e6)
	if res.Roams == 0 {
		t.Fatal("walker never reassociated")
	}
	fs := res.Flows[0]
	if fs.Delivered == 0 || fs.DropRate() > 0.2 {
		t.Errorf("walking flow suffered: %+v", fs)
	}
}

// rtsEvery turns RTS/CTS on before every data frame.
func rtsEvery(cfg Config) Config {
	cfg.RtsThresholdBytes = 1
	return cfg
}

func TestRtsCtsRescuesHiddenPair(t *testing.T) {
	cfg := DefaultConfig()
	const dur = 500000
	plain := HiddenPair(cfg, 300, 1500)(2).Run(dur)
	rts := HiddenPair(rtsEvery(cfg), 300, 1500)(2).Run(dur)
	if plain.RtsAttempts != 0 {
		t.Errorf("plain run sent %d RTSs", plain.RtsAttempts)
	}
	if rts.RtsAttempts == 0 {
		t.Fatal("RTS/CTS run sent no RTSs")
	}
	if rts.AggGoodputMbps < plain.AggGoodputMbps*1.3 {
		t.Errorf("RTS/CTS goodput %.2f did not recover over plain %.2f",
			rts.AggGoodputMbps, plain.AggGoodputMbps)
	}
	pr := float64(plain.Collisions) / float64(plain.Attempts)
	rr := float64(rts.Collisions) / float64(rts.Attempts)
	if rr > pr/2 {
		t.Errorf("RTS/CTS collision rate %.2f vs plain %.2f; NAV should defer the hidden peer", rr, pr)
	}
	// With the NAV in place, what still collides should mostly be the
	// short RTS, not protected data frames.
	if rts.RtsFailures < rts.Collisions/2 {
		t.Errorf("only %d of %d collision losses were RTSs", rts.RtsFailures, rts.Collisions)
	}
}

// NAV is virtual carrier sense: a node whose NAV is set must sit out
// even when the medium measures idle the whole time (nothing on the
// air), and contend only after expiry. This is exactly the state a
// hidden station is in during a protected exchange: it cannot sense
// the data frame, only the reservation it decoded from the CTS.
func TestNavDefersContentionOnIdleMedium(t *testing.T) {
	n := New(DefaultConfig(), 11)
	b := n.AddAP("AP", 0, 0, 1)
	st := n.AddStation(b, "sta", 10, 0)
	fl := n.Add(FlowSpec{From: st, AC: AC_BE, Gen: CBR{PayloadBytes: 400, IntervalUs: 1e6}})
	n.build()

	sh := n.shards[0]
	st.setNav(5000)
	st.enqueue(&packet{flow: fl, bytes: 400, arrivalUs: 0, ac: AC_BE})
	sh.eng.Run(4999)
	if sh.attempts[AC_BE] != 0 {
		t.Fatalf("station transmitted %d times during its NAV on an idle medium", sh.attempts[AC_BE])
	}
	if q := &st.acq[AC_BE]; !q.contending || q.boEvent.Scheduled() {
		t.Fatalf("station should be contending with the countdown parked: %+v", q)
	}
	sh.eng.Run(20000)
	if sh.attempts[AC_BE] != 1 || sh.delivered[AC_BE] != 1 {
		t.Fatalf("after NAV expiry: attempts %d delivered %d, want 1/1", sh.attempts[AC_BE], sh.delivered[AC_BE])
	}
}

func TestRtsThresholdBoundary(t *testing.T) {
	run := func(threshold int) Result {
		cfg := DefaultConfig()
		cfg.RtsThresholdBytes = threshold
		n := New(cfg, 3)
		b := n.AddAP("AP", 0, 0, 1)
		st := n.AddStation(b, "sta", 10, 0)
		n.Add(FlowSpec{From: st, AC: AC_BE, Gen: CBR{PayloadBytes: 800, IntervalUs: 2000}})
		return n.Run(100000)
	}
	atThreshold := run(800) // payload == threshold: RTS protects
	above := run(801)       // payload below threshold: plain exchange
	off := run(0)           // 0 disables RTS/CTS entirely
	if atThreshold.RtsAttempts == 0 {
		t.Error("payload at the threshold should open with an RTS")
	}
	if atThreshold.RtsAttempts != atThreshold.Attempts {
		t.Errorf("%d attempts but %d RTSs", atThreshold.Attempts, atThreshold.RtsAttempts)
	}
	if above.RtsAttempts != 0 {
		t.Errorf("payload below the threshold sent %d RTSs", above.RtsAttempts)
	}
	if off.RtsAttempts != 0 {
		t.Errorf("threshold 0 sent %d RTSs", off.RtsAttempts)
	}
	if atThreshold.Delivered == 0 || above.Delivered == 0 {
		t.Error("both variants should deliver on a clean single-station link")
	}
}

func TestArfDownshiftsWithDistance(t *testing.T) {
	run := func(distM float64) Result {
		cfg := DefaultConfig()
		cfg.RateControl = "arf"
		n := New(cfg, 5)
		b := n.AddAP("AP", 0, 0, 1)
		st := n.AddStation(b, "sta", distM, 0)
		n.Add(FlowSpec{From: st, AC: AC_BE, Gen: Saturated{PayloadBytes: 1000}})
		return n.Run(300000)
	}
	meanRate := func(r Result) float64 {
		rateOf := map[string]float64{}
		for _, m := range DefaultConfig().Modes {
			rateOf[m.Name] = m.RateMbps
		}
		var frames, sum float64
		for name, c := range r.ModeAttempts {
			frames += float64(c)
			sum += float64(c) * rateOf[name]
		}
		return sum / frames
	}
	near, far := run(10), run(140)
	if nm, fm := meanRate(near), meanRate(far); fm >= nm {
		t.Errorf("mean attempted rate near %.1f vs far %.1f; ARF should downshift with distance", nm, fm)
	}
	if len(far.ModeAttempts) < 2 {
		t.Errorf("far station's histogram %v never probed across modes", far.ModeAttempts)
	}
	if near.AggGoodputMbps <= far.AggGoodputMbps {
		t.Errorf("near goodput %.1f not above far %.1f", near.AggGoodputMbps, far.AggGoodputMbps)
	}
}

func TestArfWalkerDownshiftsWalkingAway(t *testing.T) {
	// One lone AP, a saturated station walking straight away from it:
	// per-frame ARF must walk the attempt histogram down the staircase
	// as the SNR decays, with no reassociation involved.
	cfg := DefaultConfig()
	cfg.RateControl = "arf"
	cfg.RoamIntervalUs = 100000
	n := New(cfg, 7)
	b := n.AddAP("AP", 0, 0, 1)
	st := n.AddStation(b, "walker", 5, 0)
	n.SetVelocity(st, 30, 0) // 5 m -> 155 m over 5 s
	n.Add(FlowSpec{From: st, AC: AC_BE, Gen: Saturated{PayloadBytes: 1000}})
	res := n.Run(5e6)
	if res.ModeAttempts["OFDM 54 Mbps"] == 0 {
		t.Errorf("walker never used the top rate near the AP: %v", res.ModeAttempts)
	}
	low := res.ModeAttempts["OFDM 18 Mbps"] + res.ModeAttempts["OFDM 12 Mbps"] +
		res.ModeAttempts["OFDM 9 Mbps"] + res.ModeAttempts["OFDM 6 Mbps"]
	if low == 0 {
		t.Errorf("walker never fell back to a low rate far out: %v", res.ModeAttempts)
	}
	if len(res.ModeAttempts) < 4 {
		t.Errorf("histogram %v should traverse the staircase", res.ModeAttempts)
	}
}

func TestDeterministicWithRtsAndArf(t *testing.T) {
	build := func() Result {
		cfg := DefaultConfig()
		cfg.RtsThresholdBytes = 500
		cfg.RateControl = "arf"
		return HiddenPair(cfg, 300, 1200)(13).Run(200000)
	}
	a, b := build(), build()
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("same seed diverged with RTS+ARF:\n%+v\n%+v", a, b)
	}
}

func TestTrafficGenValidation(t *testing.T) {
	cases := []struct {
		name string
		gen  TrafficGen
	}{
		{"cbr zero interval", CBR{PayloadBytes: 100, IntervalUs: 0}},
		{"cbr negative interval", CBR{PayloadBytes: 100, IntervalUs: -5}},
		{"cbr interval below a microsecond", CBR{PayloadBytes: 100, IntervalUs: 1e-300}},
		{"cbr zero payload", CBR{PayloadBytes: 0, IntervalUs: 1000}},
		{"poisson zero rate", Poisson{PayloadBytes: 100, PktPerSec: 0}},
		{"poisson nan rate", Poisson{PayloadBytes: 100, PktPerSec: math.NaN()}},
		{"poisson rate above a packet a microsecond", Poisson{PayloadBytes: 100, PktPerSec: 1e300}},
		{"onoff zero spacing", &OnOff{PayloadBytes: 100, IntervalUs: 0, OnMeanUs: 1, OffMeanUs: 1}},
		{"onoff spacing below a microsecond", &OnOff{PayloadBytes: 100, IntervalUs: 1e-300, OnMeanUs: 1, OffMeanUs: 1}},
		{"saturated zero payload", Saturated{PayloadBytes: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := New(DefaultConfig(), 1)
			b := n.AddAP("AP", 0, 0, 1)
			st := n.AddStation(b, "sta", 10, 0)
			n.Add(FlowSpec{From: st, AC: AC_BE, Gen: tc.gen})
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Run did not panic", tc.name)
				}
			}()
			n.Run(1000)
		})
	}
}

// Regression for the CTS-side edge cases: an AP that both answers
// uplink RTSs and carries its own downlink traffic must neither stall
// a flow (a packet arriving while the CTS is on the air has to be
// contended for afterwards) nor corrupt its half-duplex state when its
// own frame and a CTS reply collide in the SIFS gap.
func TestApDownlinkInterleavesWithCtsReplies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RtsThresholdBytes = 1
	n := New(cfg, 17)
	b := n.AddAP("AP", 0, 0, 1)
	s1 := n.AddStation(b, "s1", -150, 0)
	s2 := n.AddStation(b, "s2", 150, 0)
	n.Add(FlowSpec{From: s1, AC: AC_BE, Gen: Saturated{PayloadBytes: 1200}})
	n.Add(FlowSpec{From: s2, AC: AC_BE, Gen: Saturated{PayloadBytes: 1200}})
	n.Add(FlowSpec{From: b.AP, To: s1, AC: AC_BE, Gen: Poisson{PayloadBytes: 600, PktPerSec: 400}})
	res := n.Run(1e6)
	for _, f := range res.Flows {
		if f.Delivered == 0 {
			t.Errorf("flow %s stalled: %+v", f.Label, f)
		}
	}
	if res.RtsAttempts == 0 {
		t.Fatal("no RTS exchanges ran")
	}
	// Conservation: every attempt is delivered, failed, or in flight.
	judged := res.Delivered + res.Collisions + res.NoiseLosses
	if judged > res.Attempts || res.Attempts-judged > 3 {
		t.Errorf("attempt accounting off: %+v", res)
	}
}

// The CTS responder must honor the reservation it grants: with the AP
// also carrying saturated downlink traffic, its own backoff may not
// fire into the data frame it just solicited (it cannot carrier-sense
// the hidden-range sender, so only its own CTS duration holds it off).
func TestRtsCtsRescuesBidirectionalHiddenTraffic(t *testing.T) {
	run := func(threshold int) Result {
		cfg := DefaultConfig()
		cfg.RtsThresholdBytes = threshold
		n := New(cfg, 9)
		b := n.AddAP("AP", 0, 0, 1)
		s1 := n.AddStation(b, "s1", 150, 0)
		s2 := n.AddStation(b, "s2", -150, 0)
		n.Add(FlowSpec{From: s1, AC: AC_BE, Gen: Saturated{PayloadBytes: 1500}})
		n.Add(FlowSpec{From: s2, AC: AC_BE, Gen: Saturated{PayloadBytes: 1500}})
		n.Add(FlowSpec{From: b.AP, To: s1, AC: AC_BE, Gen: Saturated{PayloadBytes: 1500}})
		return n.Run(1e6)
	}
	plain, rts := run(0), run(1)
	if rts.AggGoodputMbps < plain.AggGoodputMbps*1.5 {
		t.Errorf("bidirectional RTS/CTS goodput %.2f did not recover over plain %.2f",
			rts.AggGoodputMbps, plain.AggGoodputMbps)
	}
	// Residual collision losses should be dominated by cheap RTSs, not
	// data frames fired into solicited exchanges.
	if rts.Collisions-rts.RtsFailures > rts.Collisions/4 {
		t.Errorf("%d of %d collision losses were protected data frames",
			rts.Collisions-rts.RtsFailures, rts.Collisions)
	}
}
