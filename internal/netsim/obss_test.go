package netsim

import (
	"math"
	"strings"
	"testing"
)

// obssPairNet builds two co-channel downlink BSSs whose APs hear each
// other at ~-80 dBm — above the -82 dBm energy detect but inside the
// OBSS-PD window. Stations sit 1 m from their AP, leaving a
// reusing cell ~35 dB of SINR against the far interferer even after
// the -20 dB TX-power backoff.
func obssPairNet(obssPdDBm float64, seed int64) *Network {
	cfg := DefaultConfig()
	cfg.ObssPdThresholdDBm = obssPdDBm
	n := New(cfg, seed)
	for i, x := range []float64{0, 100} {
		b := n.AddAP([]string{"A", "B"}[i], x, 0, 1)
		st := n.AddStation(b, []string{"a0", "b0"}[i], x+1, 0)
		n.Add(FlowSpec{From: b.AP, To: st, AC: AC_BE, Gen: Saturated{PayloadBytes: 1000}})
	}
	return n
}

// TestObssPdReuseUnlocksParallelTalk is the subsystem's reason to
// exist: two cells whose mutual power lands in the window serialize
// under legacy -82 dBm carrier sense but talk in parallel with
// coloring on, and both reuse counters record the decisions.
func TestObssPdReuseUnlocksParallelTalk(t *testing.T) {
	const durationUs = 200_000
	off := obssPairNet(0, 5).Run(durationUs)
	on := obssPairNet(-62, 5).Run(durationUs)

	if off.ObssIgnores != 0 || off.ObssReuseTx != 0 {
		t.Fatalf("coloring off but OBSS counters moved: ignores=%d reuse=%d",
			off.ObssIgnores, off.ObssReuseTx)
	}
	if on.ObssIgnores == 0 {
		t.Error("no inter-BSS frame was ever ignored despite both APs sitting in the window")
	}
	if on.ObssReuseTx == 0 {
		t.Error("no transmission ever started under the OBSS-PD backoff")
	}
	if on.AggGoodputMbps <= off.AggGoodputMbps*1.3 {
		t.Errorf("spatial reuse bought nothing: %v Mbps with coloring vs %v serialized",
			on.AggGoodputMbps, off.AggGoodputMbps)
	}
	if len(on.BssGoodputMbps) != 2 {
		t.Fatalf("BssGoodputMbps has %d entries, want 2", len(on.BssGoodputMbps))
	}
	for i, g := range on.BssGoodputMbps {
		if g <= 0 {
			t.Errorf("BSS %d starved under reuse: %v Mbps (per-BSS %v)", i, g, on.BssGoodputMbps)
		}
	}
}

// TestObssPdBackoffScalesWithThreshold pins the 802.11ax coupling
// rule differentially. Both thresholds catch the same ~-80 dBm
// inter-BSS frames, so the two runs make the same reuse decisions
// against the same full-power interferer — the only lever is the
// mandated TX-power backoff (-10 dB at -72, -20 dB at -62). Each
// station sits 10 m from its own AP toward the other, giving every
// reused frame a 33 dB signal-to-interference gap: comfortably above
// the 54 Mbps waterfall after -10 dB, hopelessly below it after -20.
// A more aggressive threshold that did NOT cost proportionally more
// TX power would make -62 look as good as -72 here.
func TestObssPdBackoffScalesWithThreshold(t *testing.T) {
	build := func(obssPdDBm float64) *Network {
		cfg := DefaultConfig()
		cfg.ObssPdThresholdDBm = obssPdDBm
		n := New(cfg, 9)
		a := n.AddAP("A", 0, 0, 1)
		a0 := n.AddStation(a, "a0", 10, 0)
		n.Add(FlowSpec{From: a.AP, To: a0, AC: AC_BE, Gen: Saturated{PayloadBytes: 1000}})
		b := n.AddAP("B", 100, 0, 1)
		b0 := n.AddStation(b, "b0", 90, 0)
		n.Add(FlowSpec{From: b.AP, To: b0, AC: AC_BE, Gen: Saturated{PayloadBytes: 1000}})
		return n
	}
	const durationUs = 200_000
	off := build(0).Run(durationUs)
	mild := build(-72).Run(durationUs)
	aggressive := build(-62).Run(durationUs)

	if mild.ObssReuseTx == 0 || aggressive.ObssReuseTx == 0 {
		t.Fatalf("reuse never triggered (mild %d, aggressive %d); the backoff cannot be observed",
			mild.ObssReuseTx, aggressive.ObssReuseTx)
	}
	// The mild backoff is pure win: both cells talk in parallel and
	// still decode, so the floor's capacity grows well past serialized.
	if mild.AggGoodputMbps < 1.5*off.AggGoodputMbps {
		t.Errorf("-10 dB backoff should survive the 33 dB S/I gap: %v Mbps reusing vs %v serialized",
			mild.AggGoodputMbps, off.AggGoodputMbps)
	}
	// The aggressive backoff pushes the same frames under the
	// waterfall: reuse keeps happening but stops paying.
	if aggressive.AggGoodputMbps > 0.7*mild.AggGoodputMbps {
		t.Errorf("-20 dB backoff left no mark: %v Mbps at -62 vs %v at -72",
			aggressive.AggGoodputMbps, mild.AggGoodputMbps)
	}
	if aggressive.Collisions <= mild.Collisions {
		t.Errorf("failed reuse should surface as collisions: %d at -62 vs %d at -72",
			aggressive.Collisions, mild.Collisions)
	}
}

// TestObssPdIgnoreEmitsProbeEvent checks the trace hook: every ignore
// decision surfaces as an obss_ignore event naming the deferrer and
// the inter-BSS transmitter.
func TestObssPdIgnoreEmitsProbeEvent(t *testing.T) {
	n := obssPairNet(-62, 5)
	var events []Event
	n.AttachProbe(probeFunc(func(e Event) {
		if e.Kind == EvObssIgnore {
			events = append(events, e)
		}
	}))
	res := n.Run(200_000)
	if len(events) != res.ObssIgnores {
		t.Fatalf("%d obss_ignore events vs %d counted ignores", len(events), res.ObssIgnores)
	}
	if len(events) == 0 {
		t.Fatal("no obss_ignore events")
	}
	for _, e := range events {
		if e.Node == e.Peer {
			t.Fatalf("ignore event names the same node on both ends: %+v", e)
		}
		if e.Value < -82 || e.Value >= -62 {
			t.Fatalf("ignored frame heard at %v dBm, outside the [-82, -62) window", e.Value)
		}
	}
	if EvObssIgnore.String() != "obss_ignore" {
		t.Errorf("event kind name %q", EvObssIgnore.String())
	}
}

// probeFunc adapts a closure to the Probe interface for tests.
type probeFunc func(Event)

func (f probeFunc) OnEvent(e Event) { f(e) }

func TestObssPdThresholdValidation(t *testing.T) {
	cases := []struct {
		name string
		th   float64
		want string
	}{
		{"positive", 10, "negative finite"},
		{"nan", math.NaN(), "negative finite"},
		{"inf", math.Inf(-1), "negative finite"},
		{"below CS", -90, "must be above Config.CSThresholdDBm"},
		{"equal to CS", -82, "must be above Config.CSThresholdDBm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.ObssPdThresholdDBm = tc.th
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("ObssPdThresholdDBm=%v did not panic", tc.th)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %v does not mention %q", r, tc.want)
				}
			}()
			cfg.Validate()
		})
	}
}

// TestChannelBandValidation covers the bonded-span construction guard:
// with Config.Channels set, AddAP must reject channels outside the
// band — including the silent failure of a 40 MHz BSS on the top
// channel, whose secondary slot ch+1 the band does not provide.
func TestChannelBandValidation(t *testing.T) {
	mustPanic := func(t *testing.T, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("no panic")
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
				t.Fatalf("panic %v does not mention %q", r, want)
			}
		}()
		fn()
	}

	t.Run("channel above band", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Channels = 11
		mustPanic(t, "outside the band [1, 11]", func() { New(cfg, 1).AddAP("AP", 0, 0, 12) })
	})
	t.Run("channel zero", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Channels = 11
		mustPanic(t, "outside the band", func() { New(cfg, 1).AddAP("AP", 0, 0, 0) })
	})
	t.Run("bonded span past top channel", func(t *testing.T) {
		cfg := HtConfig(1, 40)
		cfg.Channels = 11
		mustPanic(t, "bonded secondary slot falls outside the band", func() {
			New(cfg, 1).AddAP("AP", 0, 0, 11)
		})
	})
	t.Run("negative Channels", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Channels = -1
		mustPanic(t, "Config.Channels must not be negative", func() { cfg.Validate() })
	})
	t.Run("legal bonded span", func(t *testing.T) {
		cfg := HtConfig(1, 40)
		cfg.Channels = 11
		n := New(cfg, 1)
		if b := n.AddAP("AP", 0, 0, 10); b.Channel != 10 {
			t.Fatalf("channel %d", b.Channel)
		}
	})
	t.Run("unset Channels stays unchecked", func(t *testing.T) {
		n := New(DefaultConfig(), 1)
		if b := n.AddAP("AP", 0, 0, 165); b.Channel != 165 {
			t.Fatalf("channel %d", b.Channel)
		}
	})
}

// TestBssColorAssignment pins the color wheel: colors cycle through
// the 6-bit space 1..63 by BSS index, so two BSSs 63 apart share a
// color and are conservatively treated as one BSS by OBSS-PD.
func TestBssColorAssignment(t *testing.T) {
	n := New(DefaultConfig(), 1)
	var bss []*BSS
	for i := 0; i < 65; i++ {
		bss = append(bss, n.AddAP("AP", float64(40*i), 0, 1))
	}
	if bss[0].color != 1 || bss[62].color != 63 {
		t.Fatalf("color wheel off: first=%d 63rd=%d", bss[0].color, bss[62].color)
	}
	if bss[63].color != bss[0].color {
		t.Errorf("BSS 63 color %d should wrap onto BSS 0's %d", bss[63].color, bss[0].color)
	}
	for _, b := range bss {
		if b.color < 1 || b.color > 63 {
			t.Fatalf("color %d outside the 6-bit space", b.color)
		}
	}
}
