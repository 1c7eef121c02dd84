package netsim

import (
	"fmt"
	"testing"
)

// The closed-loop hook suite: attaching a Control must be invisible
// until it injects (the fate callbacks are pure observation), every
// packet must get exactly one fate, and a closed loop on a sharded
// floor must stay bit-reproducible independent of the worker count —
// the same contracts the open-loop suites pin, extended to the
// feedback path PR 8 added.

// idleControl attaches but never injects: pure observation.
type idleControl struct{ fates [3]int }

func (c *idleControl) Start() {}
func (c *idleControl) PacketFate(fate PacketFate, bytes int, elapsedUs float64) {
	c.fates[fate]++
}

// TestIdleControlBitIdentical: a Control that only observes fates must
// not perturb the simulation — the compat fingerprint of every legacy
// scenario is bit-identical with one attached to each flow. This is
// the closed-loop analogue of TestObservationEquivalence.
func TestIdleControlBitIdentical(t *testing.T) {
	roamCfg := func() Config {
		cfg := edcaConfig()
		cfg.RoamIntervalUs = 100000
		return cfg
	}
	scenarios := []struct {
		name       string
		durationUs float64
		build      func(seed int64) *Network
	}{
		{"dense-reuse", 3e5, DenseGrid(DefaultConfig(), 3, 2, []int{1, 6, 11}, 25, 1000)},
		{"mix-edca", 3e5, TrafficMix(edcaConfig(), 3, 2, 1, 6)},
		{"hidden-rtscts", 3e5, HiddenPair(rtsEvery(DefaultConfig()), 300, 1250)},
		{"roam-downlink", 2e6, RoamingWalkDownlink(roamCfg(), 120, 20)},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				bare := fingerprint(sc.build(seed).Run(sc.durationUs))
				n := sc.build(seed)
				watchers := make([]*idleControl, len(n.flows))
				for i, f := range n.flows {
					watchers[i] = &idleControl{}
					f.SetControl(watchers[i])
				}
				r := n.Run(sc.durationUs)
				if got := fingerprint(r); got != bare {
					t.Fatalf("seed %d: idle Control perturbed the run\nbare:\n%s\nattached:\n%s",
						seed, bare, got)
				}
				saw := 0
				for _, w := range watchers {
					saw += w.fates[FateDelivered] + w.fates[FateQueueDrop] + w.fates[FateRetryDrop]
				}
				if saw == 0 {
					t.Fatalf("seed %d: no fate callbacks fired", seed)
				}
			}
		})
	}
}

// TestFateConservation: per flow, the fate stream the Control sees must
// reconcile exactly with the flow's own counters — one fate per
// resolved packet, none invented, none lost — across uplink contention,
// a downlink roam handoff, a two-hop relay, and a queue-overflow floor.
func TestFateConservation(t *testing.T) {
	// Saturated generators top up only when the queue has room, so
	// queue-drop fates need an open-loop generator that outruns the
	// drain: four CBR stations each offering ~20 Mbps into QueueLimit 3.
	overload := func(seed int64) *Network {
		cfg := DefaultConfig()
		cfg.QueueLimit = 3
		n := New(cfg, seed)
		b := n.AddAP("AP", 0, 0, 1)
		for s := 0; s < 4; s++ {
			st := n.AddStation(b, fmt.Sprintf("sta%d", s), 5+float64(s), 0)
			n.Add(FlowSpec{From: st, AC: AC_BE, Gen: CBR{PayloadBytes: 1000, IntervalUs: 400}})
		}
		return n
	}
	relay := func(cfg Config) func(seed int64) *Network {
		return func(seed int64) *Network {
			n := New(cfg, seed)
			b := n.AddAP("AP", 0, 0, 1)
			src := n.AddStation(b, "src", -8, 0)
			dst := n.AddStation(b, "dst", 8, 0)
			n.Add(FlowSpec{From: src, To: dst, AC: AC_BE, Gen: Saturated{PayloadBytes: 900}})
			return n
		}
	}
	roamCfg := func() Config {
		cfg := DefaultConfig()
		cfg.RoamIntervalUs = 100000
		return cfg
	}
	scenarios := []struct {
		name       string
		durationUs float64
		build      func(seed int64) *Network
	}{
		{"uplink-contention", 3e5, DenseGrid(DefaultConfig(), 2, 3, []int{1}, 25, 750)},
		{"downlink-roam", 5e6, RoamingWalkDownlink(roamCfg(), 120, 20)},
		{"relay-two-hop", 3e5, relay(DefaultConfig())},
		{"queue-overflow", 3e5, overload},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			n := sc.build(17)
			watchers := make([]*idleControl, len(n.flows))
			for i, f := range n.flows {
				watchers[i] = &idleControl{}
				f.SetControl(watchers[i])
			}
			r := n.Run(sc.durationUs)
			drops := 0
			for i, f := range r.Flows {
				w := watchers[i]
				if w.fates[FateDelivered] != f.Delivered {
					t.Errorf("%s: %d delivered fates vs %d delivered packets", f.Label,
						w.fates[FateDelivered], f.Delivered)
				}
				if w.fates[FateQueueDrop] != f.QueueDrops {
					t.Errorf("%s: %d queue-drop fates vs %d queue drops", f.Label,
						w.fates[FateQueueDrop], f.QueueDrops)
				}
				if w.fates[FateRetryDrop] != f.RetryDrops {
					t.Errorf("%s: %d retry-drop fates vs %d retry drops", f.Label,
						w.fates[FateRetryDrop], f.RetryDrops)
				}
				drops += w.fates[FateQueueDrop] + w.fates[FateRetryDrop]
			}
			if sc.name == "queue-overflow" && drops == 0 {
				t.Error("QueueLimit 3 under saturation produced no drop fates")
			}
			if sc.name == "downlink-roam" && r.Roams == 0 {
				t.Error("walker never roamed; the handoff path went unexercised")
			}
		})
	}
}

// windowControl is a minimal fixed-window closed loop for in-package
// determinism tests (the real transport lives in netsim/transport,
// which this package cannot import). It keeps `window` segments in
// flight, re-pumping on delivery; a drop fate NEVER injects
// synchronously (the documented reentrancy rule) — it schedules the
// pump one engine-clock millisecond out.
type windowControl struct {
	f        *Flow
	segBytes int
	window   int

	inflight  int
	delivered int
	lost      int
	pumpArmed bool
	pumpFn    func() // c.pump, bound once so a retry allocates nothing
}

func (c *windowControl) Start() { c.pump() }

func (c *windowControl) pump() {
	c.pumpArmed = false
	for c.inflight < c.window {
		c.inflight++
		if !c.f.Inject(c.segBytes) {
			return // the drop fate already ran and undid the accounting
		}
	}
}

func (c *windowControl) PacketFate(fate PacketFate, bytes int, elapsedUs float64) {
	c.inflight--
	if fate == FateDelivered {
		c.delivered++
		c.pump()
		return
	}
	c.lost++
	// One outstanding retry pump at most — mirroring the real
	// transport's guard, without which every drop would seed its own
	// endless 1 ms pump chain.
	if !c.pumpArmed {
		c.pumpArmed = true
		if c.pumpFn == nil {
			c.pumpFn = c.pump
		}
		c.f.Schedule(1000, c.pumpFn)
	}
}

// stats returns the comparable counters (the Flow pointer differs
// between builds).
func (c *windowControl) stats() [4]int {
	armed := 0
	if c.pumpArmed {
		armed = 1
	}
	return [4]int{c.inflight, c.delivered, c.lost, armed}
}

// TestShardedClosedLoopRepeatDeterminism extends the sharded repeat
// contract to the feedback path: a 9-BSS/3-channel floor whose downlink
// flows are driven by fixed-window closed loops must produce the same
// Result fingerprint AND the same per-control counters for any worker
// count, because fates fire on the flow's shard goroutine and control
// timers ride the shard engine's clock — never wall time.
func TestShardedClosedLoopRepeatDeterminism(t *testing.T) {
	const groups = 3
	build := func() (*Network, []*windowControl) {
		cfg := DefaultConfig()
		cfg.Shards = groups
		cfg.QueueLimit = 6 // small enough that drop fates fire too
		n := New(cfg, 23)
		channels := []int{1, 6, 11}
		var controls []*windowControl
		for i := 0; i < 9; i++ {
			x, y := float64(i%3)*25, float64(i/3)*25
			b := n.AddAP("AP", x, y, channels[i%3])
			st := n.AddStation(b, "dl", x+5, y)
			up := n.AddStation(b, "ul", x-5, y)
			f := n.Add(FlowSpec{From: b.AP, To: st, AC: AC_BE, Gen: Pull{SegmentBytes: 1000}})
			c := &windowControl{f: f, segBytes: 1000, window: 12}
			f.SetControl(c)
			controls = append(controls, c)
			n.Add(FlowSpec{From: up, AC: AC_BE, Gen: CBR{PayloadBytes: 400, IntervalUs: 5000}})
		}
		return n, controls
	}
	run := func(workers int) (string, [][4]int) {
		n, controls := build()
		n.SetWorkers(workers)
		fp := fingerprint(n.Run(3e5))
		if got := n.Plan().Shards; got != groups {
			t.Fatalf("planned %d shards, want %d: %+v", got, groups, n.Plan())
		}
		snap := make([][4]int, len(controls))
		for i, c := range controls {
			snap[i] = c.stats()
		}
		return fp, snap
	}
	refFp, refSnap := run(1)
	pumped := 0
	for _, c := range refSnap {
		pumped += c[1]
	}
	if pumped == 0 {
		t.Fatal("closed loops delivered nothing; the test exercises no feedback")
	}
	for _, workers := range []int{groups, 2 * groups} {
		fp, snap := run(workers)
		if fp != refFp {
			t.Fatalf("workers=%d changed the result fingerprint", workers)
		}
		for i := range refSnap {
			if snap[i] != refSnap[i] {
				t.Fatalf("workers=%d: control %d diverged: %v vs %v",
					workers, i, snap[i], refSnap[i])
			}
		}
	}
}

// TestClosedLoopRepeatDeterminism pins the single-engine repeat
// contract: the same seed with a closed loop attached (including drop
// retries through Flow.Schedule) reproduces bit for bit.
func TestClosedLoopRepeatDeterminism(t *testing.T) {
	run := func() (string, [4]int) {
		cfg := DefaultConfig()
		cfg.QueueLimit = 4
		n := New(cfg, 31)
		b := n.AddAP("AP", 0, 0, 1)
		st := n.AddStation(b, "sta", 6, 0)
		f := n.Add(FlowSpec{From: b.AP, To: st, AC: AC_BE, Gen: Pull{SegmentBytes: 1000}})
		c := &windowControl{f: f, segBytes: 1000, window: 16}
		f.SetControl(c)
		fp := fingerprint(n.Run(5e5))
		return fp, c.stats()
	}
	fpA, cA := run()
	fpB, cB := run()
	if fpA != fpB || cA != cB {
		t.Fatalf("identical closed-loop runs diverged:\n%v\nvs\n%v", cA, cB)
	}
	if cA[2] == 0 {
		t.Fatal("window 16 against QueueLimit 4 never overflowed; the drop-retry path went unexercised")
	}
}
