package netsim

import (
	"fmt"
	"testing"

	"repro/internal/linkmodel"
)

// Tests for the HT rate-adaptation subsystem: the bonded-channel smoke
// path (Minstrel over the 2-D MCS × width ladder actually moves data on
// 40 MHz spans) and the per-mode attempt accounting across shard
// merges.

// TestHtBondedSmoke runs the bonded-HT dense floor (two-stream 40 MHz
// BSSs on the DenseGrid pitch, primaries {1, 5, 9} so neighboring spans
// stay orthogonal) end to end and checks the subsystem engages: frames
// deliver, per-mode attempts are counted, and at least one 40 MHz mode
// was actually transmitted (the bonded span is in use, not just
// configured).
func TestHtBondedSmoke(t *testing.T) {
	r := DenseGrid(HtConfig(2, 40), 4, 3, []int{1, 5, 9}, 20, 1500)(1).Run(2e5)
	if r.Delivered == 0 {
		t.Fatal("HT bonded floor delivered nothing")
	}
	if len(r.ModeAttempts) == 0 {
		t.Fatal("no per-mode attempts recorded")
	}
	byName := map[string]linkmodel.Mode{}
	for _, m := range linkmodel.HtModes(2, 40) {
		byName[m.Name] = m
	}
	wide, total := 0, 0
	for name, c := range r.ModeAttempts {
		m, ok := byName[name]
		if !ok {
			t.Fatalf("attempts recorded for %q, not in the HT ladder", name)
		}
		total += c
		if m.BandwidthMHz > 20 {
			wide += c
		}
	}
	if total != r.Attempts {
		t.Fatalf("ModeAttempts sum %d != Attempts %d", total, r.Attempts)
	}
	if wide == 0 {
		t.Fatal("no 40 MHz mode was ever attempted on the bonded floor")
	}
}

// TestModeAttemptsMergeSharded pins the ModeAttempts merge for
// Shards > 1: two bonded BSS on spectrally disjoint channels (spans
// {1,2} and {6,7}) decompose into two groups, and the merged map must
// be a fresh fold of both shards — without RTS every data exchange
// charges exactly one mode, so the map's sum must equal Attempts, for
// the sharded run and the single-engine oracle alike.
func TestModeAttemptsMergeSharded(t *testing.T) {
	build := func(shards int) *Network {
		cfg := HtConfig(2, 40)
		cfg.Shards = shards
		n := New(cfg, 7)
		for g, ch := range []int{1, 6} {
			x := float64(g) * 40
			b := n.AddAP(fmt.Sprintf("ap%d", g), x, 0, ch)
			for s := 0; s < 3; s++ {
				st := n.AddStation(b, fmt.Sprintf("sta%d.%d", g, s), x+5+float64(s), 3)
				n.Add(FlowSpec{From: st, AC: AC_BE, Gen: Saturated{PayloadBytes: 800}})
			}
		}
		return n
	}
	check := func(r Result, label string) {
		t.Helper()
		if len(r.ModeAttempts) == 0 {
			t.Fatalf("%s: no per-mode attempts recorded", label)
		}
		sum := 0
		for _, c := range r.ModeAttempts {
			sum += c
		}
		if sum != r.Attempts {
			t.Fatalf("%s: ModeAttempts sum %d != Attempts %d", label, sum, r.Attempts)
		}
	}
	sharded := build(2).Run(1e5)
	if sharded.Shards != 2 {
		t.Fatalf("ran %d shards, want 2", sharded.Shards)
	}
	check(sharded, "sharded")
	check(build(1).Run(1e5), "oracle")
	// Minstrel state is per shard and deterministic: a sharded repeat
	// must reproduce the run bit for bit, merged mode table included.
	if fingerprint(build(2).Run(1e5)) != fingerprint(sharded) {
		t.Fatal("sharded Minstrel run is not repeat-deterministic")
	}
}
