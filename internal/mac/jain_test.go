package mac_test

import (
	"fmt"
	"testing"

	"repro/internal/mac"
	"repro/internal/netsim"
	"repro/internal/rng"
)

// TestDcfFairnessByJain lives in the external test package because it
// scores the shares with netsim.JainIndex, and netsim imports mac.
func TestDcfFairnessByJain(t *testing.T) {
	src := rng.New(6)
	stas := make([]*mac.Station, 8)
	for i := range stas {
		stas[i] = &mac.Station{Name: fmt.Sprintf("s%d", i), RateMbps: 54}
	}
	res := mac.RunDcf(mac.Dot11agDcf(), stas, 1000, 3e6, src)
	var shares []float64
	for _, s := range res.PerStation {
		shares = append(shares, s.GoodputMbps)
	}
	if idx := netsim.JainIndex(shares); idx < 0.95 {
		t.Errorf("saturated DCF Jain index %v, want near 1", idx)
	}
}
