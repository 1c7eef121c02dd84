package transport

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
)

// The cross-shard closed-loop contract: a transport.Conn's feedback
// (fates, ACK clocking, cwnd credit) must never cross a shard seam.
// The planner enforces that structurally — any two BSSs a flow touches
// are merged into one interaction group and therefore one engine —
// and ShardPlan.FlowEdgeMerges makes the merge visible. These tests
// pin both halves: the plan collapses when a conn bridges otherwise
// independent groups, and a conn that shares a shard with inter-BSS
// traffic runs deterministically regardless of worker count.

// TestFlowEdgeMergeCollapsesPlan: two BSSs on different channels never
// couple on radio grounds, so they plan as two groups — until a flow
// (here a transport-attached Pull) connects a station of one to a
// station of the other. The plan must then run single-engine and count
// the merge, rather than let the conn's feedback straddle a seam.
func TestFlowEdgeMergeCollapsesPlan(t *testing.T) {
	build := func(crossFlow bool) *netsim.Network {
		cfg := netsim.DefaultConfig()
		cfg.Shards = 2
		n := netsim.New(cfg, 3)
		b0 := n.AddAP("ap0", 0, 0, 1)
		s0 := n.AddStation(b0, "s0", 5, 0)
		b1 := n.AddAP("ap1", 60, 0, 6)
		s1 := n.AddStation(b1, "s1", 65, 0)
		// Keep both shards busy so planning has real work either way.
		n.Add(netsim.FlowSpec{From: s0, AC: netsim.AC_BE, Gen: netsim.Saturated{PayloadBytes: 800}})
		n.Add(netsim.FlowSpec{From: s1, AC: netsim.AC_BE, Gen: netsim.Saturated{PayloadBytes: 800}})
		if crossFlow {
			f := n.Add(netsim.FlowSpec{From: s0, To: s1, AC: netsim.AC_BE,
				Gen: netsim.Pull{SegmentBytes: 1000}})
			Attach(f, Config{})
		}
		n.Prepare()
		if err := n.CheckFlowsCoSharded(); err != nil {
			t.Fatal(err)
		}
		return n
	}

	split := build(false).Plan()
	if split.Shards != 2 || split.Groups != 2 || split.FlowEdgeMerges != 0 {
		t.Fatalf("without the cross flow the floor must split: %+v", split)
	}
	merged := build(true).Plan()
	if merged.Groups != 1 {
		t.Fatalf("conn-bridged BSSs must form one interaction group: %+v", merged)
	}
	if merged.FlowEdgeMerges != 1 {
		t.Fatalf("the merge must be counted (want FlowEdgeMerges=1): %+v", merged)
	}
	if merged.Shards != 1 || merged.Reason == "" {
		t.Fatalf("a conn across the only two groups must run single-engine with a recorded reason: %+v", merged)
	}
}

// TestCrossBssConnShardedDeterminism: a conn whose flow spans two
// same-channel BSSs (relayed via the sender's AP into the neighbor
// cell) shares one shard with both, while an independent far cell on
// another channel gives the planner a second shard. The closed loop
// must complete and the whole run must be bit-reproducible across
// worker counts — the seam never carries feedback, so scheduling may
// not change a single outcome.
func TestCrossBssConnShardedDeterminism(t *testing.T) {
	type snapshot struct {
		shards, flowMerges int
		acked              int
		goodputs           string
		delivered, collisions,
		queueDrops int
	}
	run := func(workers int) snapshot {
		cfg := netsim.DefaultConfig()
		cfg.Shards = 2
		n := netsim.New(cfg, 21)
		b0 := n.AddAP("ap0", 0, 0, 1)
		s0 := n.AddStation(b0, "s0", 5, 0)
		b1 := n.AddAP("ap1", 40, 0, 1)
		s1 := n.AddStation(b1, "s1", 35, 0)
		far := n.AddAP("far", 900, 0, 6)
		fs := n.AddStation(far, "fs", 905, 0)
		f := n.Add(netsim.FlowSpec{From: s0, To: s1, AC: netsim.AC_BE,
			Gen: netsim.Pull{SegmentBytes: 1000}})
		c := Attach(f, Config{})
		c.OnStart = func() { c.Send(120_000, func(float64) {}) }
		n.Add(netsim.FlowSpec{From: s1, AC: netsim.AC_BE, Gen: netsim.CBR{PayloadBytes: 600, IntervalUs: 3000}})
		n.Add(netsim.FlowSpec{From: fs, AC: netsim.AC_BE, Gen: netsim.Saturated{PayloadBytes: 800}})
		n.SetWorkers(workers)
		n.Prepare()
		if err := n.CheckFlowsCoSharded(); err != nil {
			t.Fatal(err)
		}
		res := n.Run(3e6)
		return snapshot{
			shards:     n.Plan().Shards,
			flowMerges: n.Plan().FlowEdgeMerges,
			acked:      c.Stats().BytesAcked,
			goodputs:   fmt.Sprintf("%v", netsim.Goodputs(res.Flows)),
			delivered:  res.Delivered,
			collisions: res.Collisions,
			queueDrops: res.QueueDrops,
		}
	}

	ref := run(1)
	if ref.shards != 2 {
		t.Fatalf("floor should split around the conn's group: %+v", ref)
	}
	if ref.flowMerges != 0 {
		t.Fatalf("same-channel neighbors couple on radio alone; no flow merge expected: %+v", ref)
	}
	if ref.acked == 0 {
		t.Fatal("the cross-BSS transfer never moved a byte")
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if got != ref {
			t.Fatalf("workers=%d changed the run:\n%+v\nvs\n%+v", workers, got, ref)
		}
	}
}
