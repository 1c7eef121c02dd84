package netsim

import "repro/internal/mathx"

// FlowStats is one flow's share of a Result.
type FlowStats struct {
	Label string // "sta3→AP cbr/AC_VO"
	Class string // generator label, for grouping in reports
	AC    AC     // effective access category (AC_BE under legacy DCF)

	Arrivals   int
	Delivered  int
	QueueDrops int // lost to a full transmit queue (any hop)
	RetryDrops int // abandoned past the MAC retry limit (any hop)

	GoodputMbps float64
	MeanDelayUs float64 // arrival to end of final successful exchange
	MaxDelayUs  float64
	P95DelayUs  float64 // 95th percentile of end-to-end delay
	JitterUs    float64 // RFC 3550 smoothed delay variation

	// MacEfficiency is goodput divided by the mean PHY rate the flow's
	// data MPDUs were attempted at: the fraction of the line rate that
	// survives preamble/SIFS/ACK overhead, contention, and losses. This
	// is the figure the 802.11n aggregation story is about — it
	// collapses as the PHY rate grows under single-frame exchanges and
	// is restored by A-MPDU.
	MacEfficiency float64
}

// DropRate is the fraction of arrivals that never got through.
func (s FlowStats) DropRate() float64 {
	if s.Arrivals == 0 {
		return 0
	}
	return float64(s.QueueDrops+s.RetryDrops) / float64(s.Arrivals)
}

// stats freezes the flow's accumulators into a FlowStats. The P95 is
// selected in *scratch, a caller-owned buffer grown as needed and
// reused across flows, so f.delaysUs keeps its delivery order (the
// per-AC mean sums it in that order) and, once the buffer is large
// enough, a flow costs one allocation: its label.
func (f *Flow) stats(durationUs float64, scratch *[]float64) FlowStats {
	to := "AP"
	if f.To != nil {
		to = f.To.Name
	}
	s := FlowStats{
		Label:      f.From.Name + "→" + to + " " + f.Gen.Label() + "/" + f.ac.String(),
		Class:      f.Gen.Label(),
		AC:         f.ac,
		Arrivals:   f.arrivals,
		Delivered:  f.deliveredN,
		QueueDrops: f.queueDrops,
		RetryDrops: f.lineDrops,
		JitterUs:   f.jitterUs,
	}
	s.GoodputMbps = float64(8*f.bytesDelivered) / durationUs
	if f.mpduAttempts > 0 {
		if mean := f.rateSumMbps / float64(f.mpduAttempts); mean > 0 {
			s.MacEfficiency = s.GoodputMbps / mean
		}
	}
	if len(f.delaysUs) > 0 {
		s.MeanDelayUs = mathx.Mean(f.delaysUs)
		_, s.MaxDelayUs = mathx.MinMax(f.delaysUs)
		*scratch = append((*scratch)[:0], f.delaysUs...)
		s.P95DelayUs = mathx.PercentileInPlace(*scratch, 95)
	}
	return s
}

// JainIndex is Jain's fairness index over per-flow shares: 1 when all
// shares are equal, approaching 1/n under total capture.
func JainIndex(shares []float64) float64 {
	if len(shares) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, s := range shares {
		sum += s
		sumSq += s * s
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(shares)) * sumSq)
}

// Goodputs extracts each flow's goodput, the usual JainIndex input.
func Goodputs(flows []FlowStats) []float64 {
	out := make([]float64, len(flows))
	for i, f := range flows {
		out[i] = f.GoodputMbps
	}
	return out
}
