package netsim

import (
	"math"
	"slices"
	"testing"

	"repro/internal/mathx"
)

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("even shares index %v", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("monopoly index %v, want 0.25", got)
	}
	// No shares, or no traffic at all, is nothing to be unfair about.
	if got := JainIndex(nil); got != 1 {
		t.Errorf("empty index %v, want 1", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero index %v, want 1", got)
	}
}

// TestFlowStatsDelayEdges covers the delay percentiles at the sample
// counts where off-by-ones live: no samples (all delay figures stay
// zero rather than NaN) and a single sample (mean, max, and P95 must
// all equal it).
func TestFlowStatsDelayEdges(t *testing.T) {
	mk := func(delays []float64) FlowStats {
		f := &Flow{
			From:     &Node{Name: "sta1"},
			Gen:      Saturated{PayloadBytes: 1000},
			delaysUs: delays,
		}
		return f.stats(1e6, new([]float64))
	}
	s := mk(nil)
	if s.MeanDelayUs != 0 || s.MaxDelayUs != 0 || s.P95DelayUs != 0 {
		t.Fatalf("no-sample delays = mean %v max %v p95 %v, want all 0",
			s.MeanDelayUs, s.MaxDelayUs, s.P95DelayUs)
	}
	s = mk([]float64{420})
	if s.MeanDelayUs != 420 || s.MaxDelayUs != 420 || s.P95DelayUs != 420 {
		t.Fatalf("one-sample delays = mean %v max %v p95 %v, want all 420",
			s.MeanDelayUs, s.MaxDelayUs, s.P95DelayUs)
	}
}

// TestCollectAllocations pins result collection's allocations. A flow
// with delays costs one (its label): the P95 is selected in the
// caller's scratch buffer, not a sorted copy. Collecting a 100-flow
// network costs that label per flow plus a fixed handful for the
// Result's own slices, however many flows there are.
func TestCollectAllocations(t *testing.T) {
	f := &Flow{
		From:     &Node{Name: "sta1"},
		Gen:      Saturated{PayloadBytes: 1000},
		ac:       AC_VI,
		delaysUs: []float64{900, 120, 450, 450, 3000, 75, 610},
	}
	scratch := make([]float64, 0, len(f.delaysUs))
	if got := testing.AllocsPerRun(100, func() { f.stats(1e6, &scratch) }); got > 1 {
		t.Errorf("Flow.stats: %v allocations, want at most 1 (the label)", got)
	}
	inOrder := slices.Clone(f.delaysUs)
	s := f.stats(1e6, &scratch)
	if want := mathx.Percentile(inOrder, 95); s.Label != "sta1→AP saturated/AC_VI" || s.P95DelayUs != want {
		t.Errorf("Flow.stats = label %q, P95 %v; want \"sta1→AP saturated/AC_VI\", %v", s.Label, s.P95DelayUs, want)
	}
	if !slices.Equal(f.delaysUs, inOrder) {
		t.Errorf("Flow.stats reordered the delay log: %v, was %v", f.delaysUs, inOrder)
	}

	const fixed = 8
	n := DenseGrid(DefaultConfig(), 10, 10, []int{1, 6, 11}, 30, 500)(1)
	res := n.Run(1e5)
	if len(res.Flows) != 100 {
		t.Fatalf("%d flows, want 100", len(res.Flows))
	}
	withDelays := 0
	for _, fs := range res.Flows {
		if fs.Delivered > 0 {
			withDelays++
		}
	}
	if withDelays < 90 {
		t.Fatalf("%d of 100 flows delivered a packet, want at least 90", withDelays)
	}
	got := testing.AllocsPerRun(10, func() { n.collect(1e5) })
	t.Logf("collect over %d flows: %v allocations", len(res.Flows), got)
	if got > float64(len(res.Flows)+fixed) {
		t.Errorf("collect: %v allocations over %d flows, want at most one per flow plus %d",
			got, len(res.Flows), fixed)
	}
}
