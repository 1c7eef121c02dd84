package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// burstFloorConfig turns on every per-frame mechanism at once: A-MPDU
// aggregation, RTS/CTS above 500 B, EDCA with the 802.11e TXOP limits.
func burstFloorConfig() Config {
	cfg := aggConfig()
	e := DefaultEdca(cfg.Dcf, cfg.QueueLimit).WithDot11eTxop(cfg.Dcf)
	cfg.Edca = &e
	cfg.RtsThresholdBytes = 500
	return cfg
}

// burstFloor is four co-channel BSSs whose traffic drives RTS-protected
// A-MPDU bursts chained inside video TXOPs, single protected MPDUs,
// unprotected voice, virtual collisions between a node's own
// categories, and a closed loop whose 8-deep best-effort queue forces
// drop fates.
func burstFloor(cfg Config) func(seed int64) *Network {
	e := *cfg.Edca
	e[AC_BE].QueueLimit = 8
	cfg.Edca = &e
	return func(seed int64) *Network {
		n := New(cfg, seed)
		for i := 0; i < 4; i++ {
			x, y := float64(i%2)*30, float64(i/2)*30
			b := n.AddAP(fmt.Sprintf("AP%d", i), x, y, 1)
			vi := n.AddStation(b, fmt.Sprintf("vi%d", i), x+6, y)
			be := n.AddStation(b, fmt.Sprintf("be%d", i), x-6, y)
			n.Add(FlowSpec{From: vi, AC: AC_VI, Gen: Saturated{PayloadBytes: 900}})
			n.Add(FlowSpec{From: vi, AC: AC_VO, Gen: CBR{PayloadBytes: 200, IntervalUs: 2000}})
			n.Add(FlowSpec{From: be, AC: AC_BE, Gen: Poisson{PayloadBytes: 300, PktPerSec: 400}})
			f := n.Add(FlowSpec{From: b.AP, To: be, AC: AC_BE, Gen: Pull{SegmentBytes: 1000}})
			f.SetControl(&windowControl{f: f, segBytes: 1000, window: 12})
		}
		return n
	}
}

// roamBurstFloor walks two stations across three APs (the third on
// another channel) while their APs push aggregated, RTS-protected
// downlink at them, so downlink hand-off moves queued packets between
// APs while bursts are in flight.
func roamBurstFloor(cfg Config) func(seed int64) *Network {
	return func(seed int64) *Network {
		cfg.RoamIntervalUs = 50000
		n := New(cfg, seed)
		b1 := n.AddAP("AP1", 0, 0, 1)
		n.AddAP("AP2", 60, 0, 1)
		n.AddAP("AP3", 120, 0, 6)
		for i, vx := range []float64{25, 18} {
			st := n.AddStation(b1, fmt.Sprintf("walker%d", i), 3, float64(4*i))
			n.SetVelocity(st, vx, 0)
			n.Add(FlowSpec{From: b1.AP, To: st, AC: AC_VI, Gen: CBR{PayloadBytes: 900, IntervalUs: 600}})
			n.Add(FlowSpec{From: st, AC: AC_BE, Gen: CBR{PayloadBytes: 700, IntervalUs: 3000}})
		}
		return n
	}
}

// poolFingerprint extends the compat fingerprint with the surfaces the
// aggregated and TXOP paths move.
func poolFingerprint(r Result) string {
	var b strings.Builder
	b.WriteString(fingerprint(r))
	fmt.Fprintf(&b, "txops=%d bar=%d obss=%d/%d\n", r.Txops, r.BlockAckRetries, r.ObssIgnores, r.ObssReuseTx)
	sizes := make([]int, 0, len(r.AmpduHist))
	for k := range r.AmpduHist {
		sizes = append(sizes, k)
	}
	sort.Ints(sizes)
	for _, k := range sizes {
		fmt.Fprintf(&b, "ampdu %d=%d\n", k, r.AmpduHist[k])
	}
	for ac, s := range r.PerAC {
		fmt.Fprintf(&b, "ac%d air=%v\n", ac, s.TxopAirtimeFrac)
	}
	return b.String()
}

// TestPoisonedFramePoolsBitIdentical runs with released records
// quarantined and poisoned (poisonFrames): a transmission or packet
// read after its release point dereferences nil, and no record is ever
// recycled. Every compat preset — mobility, RTS/CTS, ARF, the sharded
// and aggregated multi-shard-* rows — must still reproduce its golden
// hash, and the aggregated floors the goldens do not cover must match
// their recycling runs bit for bit.
func TestPoisonedFramePoolsBitIdentical(t *testing.T) {
	data, err := os.ReadFile(goldensPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	poisoned := func(run func() Result) Result {
		poisonFrames = true
		defer func() { poisonFrames = false }()
		r := run()
		for i, fp := range r.FramePools {
			if fp.TxHits != 0 || fp.PacketHits != 0 {
				t.Fatalf("shard %d recycled records while poisoned: %+v", i, fp)
			}
		}
		return r
	}
	for _, sc := range compatScenarios() {
		sum := sha256.Sum256([]byte(fingerprint(poisoned(sc.run))))
		if got := hex.EncodeToString(sum[:]); got != want[sc.name] {
			t.Errorf("%s: poisoned pools diverged from the golden (hash %s, want %s)", sc.name, got, want[sc.name])
		}
	}
	extra := []struct {
		name string
		run  func() Result
		// covers reports whether the run reached the paths it is here for.
		covers func(r Result) bool
	}{
		{"burst-floor", func() Result { return burstFloor(burstFloorConfig())(3).Run(3e5) },
			func(r Result) bool {
				return r.BlockAckRetries > 0 && r.RtsFailures > 0 && r.VirtualCollisions > 0 &&
					r.QueueDrops > 0 && r.Txops < r.Attempts
			}},
		{"roam-burst-floor", func() Result { return roamBurstFloor(burstFloorConfig())(5).Run(4e6) },
			func(r Result) bool { return r.Roams > 0 && r.RtsAttempts > 0 && len(r.AmpduHist) > 1 }},
	}
	for _, sc := range extra {
		recycled := sc.run()
		if recycled.FramePools[0].TxHits == 0 || recycled.FramePools[0].PacketHits == 0 {
			t.Fatalf("%s never recycled a record: %+v", sc.name, recycled.FramePools[0])
		}
		if !sc.covers(recycled) {
			t.Fatalf("%s misses a path it exists for: %s", sc.name, recycled)
		}
		if got, want := poolFingerprint(poisoned(sc.run)), poolFingerprint(recycled); got != want {
			t.Errorf("%s: poisoned pools diverged from the recycling run:\n%s\nvs\n%s", sc.name, got, want)
		}
	}
}

// TestStaleContributionSkipsRecycledFrame: under mobility a frame
// records the interference it crossed into each concurrent frame. When
// one of those victims finishes, is released and its record recycled
// for a new frame, the stale entry must not be unwound from the new
// frame's sum — only the entry taken against the new frame is.
func TestStaleContributionSkipsRecycledFrame(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RoamIntervalUs = 100000 // arms the contribution snapshots
	n := New(cfg, 1)
	b1 := n.AddAP("AP1", 0, 0, 1)
	b2 := n.AddAP("AP2", 200, 0, 1)
	b3 := n.AddAP("AP3", 400, 0, 1)
	s1 := n.AddStation(b1, "s1", 10, 0)
	s2 := n.AddStation(b2, "s2", 210, 0)
	s3 := n.AddStation(b3, "s3", 300, 0) // nearer AP2 than s1 is
	n.build()
	m, sh := n.media[0], n.shards[0]
	mode := n.robustMode()

	long := sh.newTx(FrameData, s1, b1.AP, nil, nil, mode, 0)
	victim := sh.newTx(FrameData, s2, b2.AP, nil, nil, mode, 0)
	third := sh.newTx(FrameData, s3, b3.AP, nil, nil, mode, 0)
	m.start(long)
	m.start(victim) // long records its crossing into victim
	m.start(third)
	m.finish(victim)
	sh.freeTx(victim)

	fresh := sh.newTx(FrameData, s2, b2.AP, nil, nil, mode, 0)
	if fresh != victim {
		t.Fatal("the pool did not recycle the released record")
	}
	m.start(fresh) // long records a second crossing, into the same record
	fromThird := n.rxPowerMw(s3, b2.AP)
	if want := n.rxPowerMw(s1, b2.AP) + fromThird; fresh.curIntfMw != want {
		t.Fatalf("fresh frame carries %v mW, want %v", fresh.curIntfMw, want)
	}
	m.finish(long)
	if fresh.curIntfMw != fromThird {
		t.Fatalf("after the long frame ended the fresh frame carries %v mW, want %v from the third frame alone (a stale contribution was unwound into it)",
			fresh.curIntfMw, fromThird)
	}
	m.finish(third)
	m.finish(fresh)
}

// TestRunAllocationsFlat pins the allocation-free frame loop: the same
// seeded network run for T and for 2T must differ by at most 0.05 heap
// allocations per extra exchange attempt. Differencing two runs cancels
// what does not scale with frames (build, pool growth to the live set,
// first-use bindings, Result assembly); what remains is the per-frame
// cost, plus the per-flow delay log's geometric growth.
func TestRunAllocationsFlat(t *testing.T) {
	obss := DefaultConfig()
	obss.ObssPdThresholdDBm = -72
	floors := []struct {
		name  string
		build func(seed int64) *Network
		durUs float64
	}{
		{"obss-single-frame", LargeFloor(obss, 16, 4, 4, 1), 2e5},
		{"rts-ampdu-txop-edca", burstFloor(burstFloorConfig()), 1e6},
	}
	measure := func(build func(int64) *Network, durUs float64) (uint64, int) {
		n := build(7)
		n.Prepare()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r := n.Run(durUs)
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, r.Attempts
	}
	for _, fl := range floors {
		m1, a1 := measure(fl.build, fl.durUs)
		m2, a2 := measure(fl.build, 2*fl.durUs)
		if a2 <= a1 {
			t.Fatalf("%s: %d attempts over 2T, not above %d over T", fl.name, a2, a1)
		}
		perAttempt := (float64(m2) - float64(m1)) / float64(a2-a1)
		t.Logf("%s: %d allocs / %d attempts over T, %d / %d over 2T: %.4f per extra attempt",
			fl.name, m1, a1, m2, a2, perAttempt)
		if perAttempt > 0.05 {
			t.Errorf("%s: %.3f allocations per extra attempt, want <= 0.05", fl.name, perAttempt)
		}
	}
}
