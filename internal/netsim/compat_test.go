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
func compatScenarios() []compatRow {
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
	rows := []compatRow{
		{"e22-dense-cochannel", 3e5, 0, func() *Network {
			return DenseGrid(DefaultConfig(), 2, 3, []int{1}, 25, 750)(42)
		}},
		{"e22-dense-reuse", 3e5, 0, func() *Network {
			return DenseGrid(DefaultConfig(), 3, 2, []int{1, 6, 11}, 25, 1000)(11)
		}},
		{"e23-mix-legacy", 3e5, 0, func() *Network {
			return TrafficMix(DefaultConfig(), 3, 2, 1, 2)(7)
		}},
		{"e24-hidden-plain", 3e5, 0, func() *Network {
			return HiddenPair(DefaultConfig(), 300, 1250)(5)
		}},
		{"e24-hidden-rtscts", 3e5, 0, func() *Network {
			return HiddenPair(rtsEvery(DefaultConfig()), 300, 1250)(5)
		}},
		{"e24-hidden-rts-arf", 2e5, 0, func() *Network {
			return HiddenPair(arfCfg(), 300, 1200)(13)
		}},
		{"e25-mix-edca", 3e5, 0, func() *Network {
			return TrafficMix(edcaConfig(), 3, 2, 1, 6)(9)
		}},
		// roam-downlink-edca never roams: in 2 s the walker covers 40 m
		// of the 120 m AP gap and stays with AP1, so the row pins the
		// mobile EDCA downlink without a reassociation.
		// roam-handoff-edca halves the gap; the walker reassociates
		// once and its queued downlink is handed to AP2. Captured on
		// the tree before carrier sense became one shared predicate.
		{"roam-downlink-edca", 2e6, 0, func() *Network {
			return RoamingWalkDownlink(roamCfg(), 120, 20)(3)
		}},
		{"roam-handoff-edca", 2e6, 0, func() *Network {
			return RoamingWalkDownlink(roamCfg(), 60, 20)(3)
		}},
		// large-floor pins the PR 5 scale path (spatial index, pooled
		// events, tracked carrier sense) on a 25-BSS single-channel
		// slice of the E27 workload — 100 nodes on one medium, above
		// the small-channel cutover, so the golden really runs the
		// indexed carrier sense. Captured at its introduction, after
		// the index-on/index-off equivalence suite proved the path
		// against the brute-force oracle.
		{"large-floor", 1e5, 0, func() *Network {
			cfg := DefaultConfig()
			cfg.CSThresholdDBm = -62
			return LargeFloor(cfg, 25, 3, 5, 1)(21)
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
		{"obss-off-floor", 1e5, 0, func() *Network {
			return LargeFloor(DefaultConfig(), 16, 2, 4, 1, 6, 11)(31)
		}},
	}
	// multi-shard-* pins Shards: N bit for bit: every shardScenarios
	// preset split into one engine per interaction group, at a fixed
	// seed. Captured on the tree that still stepped the engines in
	// lock-step epochs with cross-shard mailboxes, so the rows prove
	// that running each engine straight to the horizon changes nothing.
	for _, sc := range shardScenarios() {
		rows = append(rows, compatRow{"multi-shard-" + sc.name, sc.durationUs, sc.groups,
			func() *Network {
				cfg := DefaultConfig()
				cfg.Shards = sc.groups
				return sc.build(cfg)(11)
			}})
	}
	return rows
}

// compatRow is one compat preset: a fixed-seed network and the virtual
// time it runs for. shards, when positive, is the engine count the run
// must use.
type compatRow struct {
	name       string
	durationUs float64
	shards     int
	build      func() *Network
}

// run simulates the row's network to its horizon.
func (r compatRow) run() Result {
	res := r.build().Run(r.durationUs)
	if r.shards > 0 && res.Shards != r.shards {
		panic(fmt.Sprintf("%s ran %d shards, want %d", r.name, res.Shards, r.shards))
	}
	return res
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
