package netsim

// The time-series sampler. With Config.SampleIntervalUs set, Prepare
// arms a periodic tick that snapshots telemetry into a columnar
// SampleSeries: cumulative counters are differenced into per-window
// deltas (goodput, airtime), instantaneous state is read at the tick
// (queue depths, NAV occupancy). The tick is observational by design —
// it reads counters, never draws randomness, never touches MAC state,
// and the one event it schedules is its own successor, which shifts
// every engine sequence number uniformly and therefore preserves the
// relative order of all simulation events. A sampled run is
// bit-identical to an unsampled one; the equivalence suite pins that.

// SampleSeries is the columnar (struct-of-slices) time series attached
// to Result.Samples. Every column has one entry per window; window i
// covers (TimeUs[i]-width, TimeUs[i]], where width is IntervalUs except
// for the final window, which may be the shorter remainder up to the
// run's end.
type SampleSeries struct {
	// IntervalUs is the configured tick; the last window may be shorter.
	IntervalUs float64
	// TimeUs holds each window's end time.
	TimeUs []float64

	// AcGoodputMbps is delivered goodput per access category over the
	// window; AcQueueDepth the summed per-category queue occupancy
	// across all nodes at the window's end; AcAirtimeUs the medium time
	// the category's exchanges occupied inside the window. The airtime
	// column telescopes: summing it over all windows recovers the run
	// aggregate, so Sum(AcAirtimeUs[ac])/DurationUs equals the
	// category's TxopAirtimeFrac.
	AcGoodputMbps [NumACs][]float64
	AcQueueDepth  [NumACs][]int
	AcAirtimeUs   [NumACs][]float64

	// BusyFrac / CollisionFrac are the busiest channel's union busy
	// fraction and its ≥2-concurrent-frames (overlap) fraction over the
	// window — per-window analogues of Result.AirtimeFrac, each taken as
	// the max across media.
	BusyFrac      []float64
	CollisionFrac []float64

	// NavFrac is the fraction of nodes whose NAV was set (virtual
	// carrier sense deferring) at the window's end.
	NavFrac []float64

	// BssGoodputMbps[b] is BSS b's delivered goodput per window, indexed
	// as Network.bss / the scenario's AddAP order.
	BssGoodputMbps [][]float64
}

// Windows is the number of recorded windows.
func (s *SampleSeries) Windows() int { return len(s.TimeUs) }

// sampler drives the tick and holds the previous-tick cumulative
// snapshots the delta columns are differenced from.
type sampler struct {
	net        *Network
	intervalUs float64
	lastUs     float64

	prevAcBytes   [NumACs]int
	prevAcAirUs   [NumACs]float64
	prevBssBytes  []int
	prevBusyUs    []float64 // per medium
	prevOverlapUs []float64 // per medium

	series *SampleSeries
}

// newSampler snapshots the (all-zero) baseline against a built network.
// Prepare calls it after build, so the media and BSS lists are final.
func newSampler(n *Network) *sampler {
	s := &sampler{net: n, intervalUs: n.cfg.SampleIntervalUs,
		series: &SampleSeries{IntervalUs: n.cfg.SampleIntervalUs}}
	s.prevBssBytes = make([]int, len(n.bss))
	s.prevBusyUs = make([]float64, len(n.media))
	s.prevOverlapUs = make([]float64, len(n.media))
	s.series.BssGoodputMbps = make([][]float64, len(n.bss))
	return s
}

// arm schedules the first tick. The sampler reads cross-shard state, so
// planShards forces a sampled network onto a single engine — shard 0
// therefore holds every counter the tick reads.
func (s *sampler) arm() { s.net.shards[0].eng.Schedule(s.intervalUs, s.tick) }

// tick closes the window ending now and re-arms.
func (s *sampler) tick() {
	s.record(s.net.shards[0].eng.Now())
	s.arm()
}

// record appends one window ending at nowUs to every column.
func (s *sampler) record(nowUs float64) {
	n := s.net
	width := nowUs - s.lastUs
	if width <= 0 {
		return
	}
	s.lastUs = nowUs
	ser := s.series
	ser.TimeUs = append(ser.TimeUs, nowUs)

	var depth [NumACs]int
	navSet := 0
	for _, nd := range n.nodes {
		for ac := range nd.acq {
			depth[ac] += len(nd.acq[ac].queue)
		}
		if nd.navUntilUs > nowUs {
			navSet++
		}
	}
	for ac := 0; ac < int(NumACs); ac++ {
		bytes := n.shards[0].acBytesDelivered[ac]
		ser.AcGoodputMbps[ac] = append(ser.AcGoodputMbps[ac],
			float64(8*(bytes-s.prevAcBytes[ac]))/width)
		s.prevAcBytes[ac] = bytes
		ser.AcQueueDepth[ac] = append(ser.AcQueueDepth[ac], depth[ac])
		air := n.shards[0].acAirtimeUs[ac]
		ser.AcAirtimeUs[ac] = append(ser.AcAirtimeUs[ac], air-s.prevAcAirUs[ac])
		s.prevAcAirUs[ac] = air
	}
	ser.NavFrac = append(ser.NavFrac, float64(navSet)/float64(len(n.nodes)))

	busyFrac, collFrac := 0.0, 0.0
	for i, m := range n.media {
		busy := m.busyUsAt(nowUs)
		if f := (busy - s.prevBusyUs[i]) / width; f > busyFrac {
			busyFrac = f
		}
		s.prevBusyUs[i] = busy
		overlap := m.overlapUsAt(nowUs)
		if f := (overlap - s.prevOverlapUs[i]) / width; f > collFrac {
			collFrac = f
		}
		s.prevOverlapUs[i] = overlap
	}
	ser.BusyFrac = append(ser.BusyFrac, busyFrac)
	ser.CollisionFrac = append(ser.CollisionFrac, collFrac)

	for b := range n.bss {
		bytes := n.bssBytes[b]
		ser.BssGoodputMbps[b] = append(ser.BssGoodputMbps[b],
			float64(8*(bytes-s.prevBssBytes[b]))/width)
		s.prevBssBytes[b] = bytes
	}
}

// finish flushes the partial window between the last tick and the run's
// end (collect calls it), so the delta columns telescope to exactly the
// run aggregates, and returns the series.
func (s *sampler) finish(durationUs float64) *SampleSeries {
	s.record(durationUs)
	return s.series
}
