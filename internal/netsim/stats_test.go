package netsim

import (
	"math"
	"testing"
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
		return f.stats(1e6)
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
