package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The TXOP/A-MPDU redesign must be invisible when its knobs are off:
// with Config.Aggregation nil and every AcParams.TxopLimitUs zero, the
// exchange layer has to reproduce the pre-refactor simulator bit for
// bit. The goldens in testdata/compat_goldens.json were generated from
// the tree as it stood BEFORE the redesign (PR 3), by running this test
// with -update on that commit; they must never be regenerated from a
// tree whose legacy-path behavior is in question, because then the test
// would only prove the code equals itself.
var updateGoldens = flag.Bool("update", false,
	"rewrite testdata/compat_goldens.json from this tree (only valid on a tree whose legacy exchange path is already trusted)")

// fingerprint serializes exactly the Result surface that existed before
// the TXOP/A-MPDU redesign. New fields (A-MPDU histogram, TXOP airtime,
// Block-ACK retries, MAC efficiency) are deliberately excluded: they
// are zero/absent in legacy runs and not part of the compatibility
// contract. Floats are printed with %v, whose shortest-round-trip form
// is exact, so two fingerprints match iff the runs match bit for bit.
func fingerprint(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "dur=%v att=%d del=%d coll=%d noise=%d rdrop=%d qdrop=%d rts=%d rtsf=%d vc=%d roam=%d agg=%v air=%v\n",
		r.DurationUs, r.Attempts, r.Delivered, r.Collisions, r.NoiseLosses,
		r.RetryDrops, r.QueueDrops, r.RtsAttempts, r.RtsFailures,
		r.VirtualCollisions, r.Roams, r.AggGoodputMbps, r.AirtimeFrac)
	for ac := 0; ac < int(NumACs); ac++ {
		s := r.PerAC[ac]
		fmt.Fprintf(&b, "ac%d flows=%d att=%d del=%d coll=%d noise=%d rdrop=%d qdrop=%d mean=%v p95=%v\n",
			ac, s.Flows, s.Attempts, s.Delivered, s.Collisions, s.NoiseLosses,
			s.RetryDrops, s.QueueDrops, s.MeanDelayUs, s.P95DelayUs)
	}
	for _, f := range r.Flows {
		fmt.Fprintf(&b, "%s ac=%d arr=%d del=%d qdrop=%d rdrop=%d gp=%v mean=%v max=%v p95=%v jit=%v\n",
			f.Label, int(f.AC), f.Arrivals, f.Delivered, f.QueueDrops, f.RetryDrops,
			f.GoodputMbps, f.MeanDelayUs, f.MaxDelayUs, f.P95DelayUs, f.JitterUs)
	}
	modes := make([]string, 0, len(r.ModeAttempts))
	for name := range r.ModeAttempts {
		modes = append(modes, name)
	}
	sort.Strings(modes)
	for _, name := range modes {
		fmt.Fprintf(&b, "mode %s=%d\n", name, r.ModeAttempts[name])
	}
	return b.String()
}

// compatScenarios covers the E22-E25 feature surface with Aggregation
// nil and all TXOP limits zero: dense co-channel and 1/6/11 grids
// (E22), the legacy traffic mix (E23), the hidden pair plain / RTS-CTS
// / RTS+ARF (E24), the EDCA mix (E25), and the roaming downlink
// handoff. Seeds and durations are fixed; every run must be
// reproducible bit for bit.
func compatScenarios() []struct {
	name string
	run  func() Result
} {
	arfCfg := func() Config {
		cfg := DefaultConfig()
		cfg.RtsThresholdBytes = 500
		cfg.RateControl = "arf"
		return cfg
	}
	roamCfg := func() Config {
		cfg := edcaConfig()
		cfg.RoamIntervalUs = 100000
		return cfg
	}
	rows := []struct {
		name string
		run  func() Result
	}{
		{"e22-dense-cochannel", func() Result {
			return DenseGrid(DefaultConfig(), 2, 3, []int{1}, 25, 750)(42).Run(3e5)
		}},
		{"e22-dense-reuse", func() Result {
			return DenseGrid(DefaultConfig(), 3, 2, []int{1, 6, 11}, 25, 1000)(11).Run(3e5)
		}},
		{"e23-mix-legacy", func() Result {
			return TrafficMix(DefaultConfig(), 3, 2, 1, 2)(7).Run(3e5)
		}},
		{"e24-hidden-plain", func() Result {
			return HiddenPair(DefaultConfig(), 300, 1250)(5).Run(3e5)
		}},
		{"e24-hidden-rtscts", func() Result {
			return HiddenPair(rtsEvery(DefaultConfig()), 300, 1250)(5).Run(3e5)
		}},
		{"e24-hidden-rts-arf", func() Result {
			return HiddenPair(arfCfg(), 300, 1200)(13).Run(2e5)
		}},
		{"e25-mix-edca", func() Result {
			return TrafficMix(edcaConfig(), 3, 2, 1, 6)(9).Run(3e5)
		}},
		// roam-downlink-edca never roams: in 2 s the walker covers 40 m
		// of the 120 m AP gap and stays with AP1, so the row pins the
		// mobile EDCA downlink without a reassociation.
		// roam-handoff-edca halves the gap; the walker reassociates
		// once and its queued downlink is handed to AP2. Captured on
		// the tree before carrier sense became one shared predicate.
		{"roam-downlink-edca", func() Result {
			return RoamingWalkDownlink(roamCfg(), 120, 20)(3).Run(2e6)
		}},
		{"roam-handoff-edca", func() Result {
			return RoamingWalkDownlink(roamCfg(), 60, 20)(3).Run(2e6)
		}},
		// large-floor pins the PR 5 scale path (spatial index, pooled
		// events, tracked carrier sense) on a 25-BSS single-channel
		// slice of the E27 workload — 100 nodes on one medium, above
		// the small-channel cutover, so the golden really runs the
		// indexed carrier sense. Captured at its introduction, after
		// the index-on/index-off equivalence suite proved the path
		// against the brute-force oracle.
		{"large-floor", func() Result {
			cfg := DefaultConfig()
			cfg.CSThresholdDBm = -62
			return LargeFloor(cfg, 25, 3, 5, 1)(21).Run(1e5)
		}},
		// obss-off-floor pins the spatial-reuse subsystem's OFF state:
		// ObssPdThresholdDBm unset on the 1/6/11 floor E31 sweeps, at
		// the legacy -82 dBm energy detect. Captured at the subsystem's
		// introduction — after every pre-OBSS golden above passed
		// unchanged, proving coloring-off reproduces the pre-OBSS tree
		// bit for bit — so any future OBSS change that leaks into the
		// disabled path (a scale factor that stops being exactly 1, a
		// window test that fires with the threshold unset) trips this
		// row.
		{"obss-off-floor", func() Result {
			return LargeFloor(DefaultConfig(), 16, 2, 4, 1, 6, 11)(31).Run(1e5)
		}},
	}
	// multi-shard-* pins Shards: N bit for bit: every shardScenarios
	// preset split into one engine per interaction group, at a fixed
	// seed. Captured on the tree that still stepped the engines in
	// lock-step epochs with cross-shard mailboxes, so the rows prove
	// that running each engine straight to the horizon changes nothing.
	for _, sc := range shardScenarios() {
		rows = append(rows, struct {
			name string
			run  func() Result
		}{"multi-shard-" + sc.name, func() Result {
			cfg := DefaultConfig()
			cfg.Shards = sc.groups
			r := sc.build(cfg)(11).Run(sc.durationUs)
			if r.Shards != sc.groups {
				panic(fmt.Sprintf("%s ran %d shards, want %d", sc.name, r.Shards, sc.groups))
			}
			return r
		}})
	}
	return rows
}

const goldensPath = "testdata/compat_goldens.json"

func TestPreTxopResultsBitForBit(t *testing.T) {
	got := map[string]string{}
	for _, sc := range compatScenarios() {
		sum := sha256.Sum256([]byte(fingerprint(sc.run())))
		got[sc.name] = hex.EncodeToString(sum[:])
	}
	if *updateGoldens {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldensPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldensPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d goldens to %s", len(got), goldensPath)
		return
	}
	data, err := os.ReadFile(goldensPath)
	if err != nil {
		t.Fatalf("read goldens (run with -update on a trusted tree to regenerate): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, sc := range compatScenarios() {
		if _, ok := want[sc.name]; !ok {
			t.Errorf("%s: no golden recorded", sc.name)
			continue
		}
		if got[sc.name] != want[sc.name] {
			t.Errorf("%s: result diverged from the pre-TXOP exchange layer (hash %s, want %s) — the legacy path must reproduce PR 3 bit for bit with Aggregation nil and TxopLimitUs zero",
				sc.name, got[sc.name], want[sc.name])
		}
	}
}
