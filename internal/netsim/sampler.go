package netsim

// The time-series sampler. With Config.SampleIntervalUs set, Prepare
// gives every shard a sampler whose tick runs on that shard's engine
// and snapshots only that shard's telemetry — its counters, its media
// and the nodes on them — into a columnar series: cumulative counters
// are differenced into per-window deltas (goodput, airtime),
// instantaneous state is read at the tick (queue depths, NAV
// occupancy). Every shard ticks at the same virtual times, so collect
// merges the shards' series window by window (Network.samples). The
// tick is observational by design — it reads counters, never draws
// randomness, never touches MAC state, and the one event it schedules
// is its own successor, which shifts every sequence number of its
// engine uniformly and therefore preserves the relative order of all
// simulation events. A sampled run is bit-identical to an unsampled
// one, on any shard plan; the equivalence suite pins that.

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
}

// Windows is the number of recorded windows.
func (s *SampleSeries) Windows() int { return len(s.TimeUs) }

// sampler drives one shard's tick and holds the previous-tick
// cumulative snapshots the delta columns are differenced from. navSet
// counts, per window, the shard's nodes whose NAV was set; samples
// turns the merged counts into NavFrac.
type sampler struct {
	sh         *shard
	intervalUs float64
	lastUs     float64

	prevAcBytes   [NumACs]int
	prevAcAirUs   [NumACs]float64
	prevBusyUs    []float64 // per shard medium
	prevOverlapUs []float64 // per shard medium

	navSet []int
	series SampleSeries
}

// newSampler snapshots the (all-zero) baseline against a built shard.
// Prepare calls it after build, so the shard's media are final.
func newSampler(sh *shard) *sampler {
	iv := sh.net.cfg.SampleIntervalUs
	return &sampler{sh: sh, intervalUs: iv, series: SampleSeries{IntervalUs: iv},
		prevBusyUs:    make([]float64, len(sh.media)),
		prevOverlapUs: make([]float64, len(sh.media))}
}

// arm schedules the next tick on the shard's engine.
func (s *sampler) arm() { s.sh.eng.Schedule(s.intervalUs, s.tick) }

// tick closes the window ending now and re-arms.
func (s *sampler) tick() {
	s.record(s.sh.eng.Now())
	s.arm()
}

// record appends one window ending at nowUs to every column. Every
// node sits on exactly one medium, so the shard's nodes are its media's
// members.
func (s *sampler) record(nowUs float64) {
	sh := s.sh
	width := nowUs - s.lastUs
	if width <= 0 {
		return
	}
	s.lastUs = nowUs
	ser := &s.series
	ser.TimeUs = append(ser.TimeUs, nowUs)

	var depth [NumACs]int
	navSet := 0
	busyFrac, collFrac := 0.0, 0.0
	for i, m := range sh.media {
		for _, c := range m.entries {
			nd := m.members[c.gi]
			for ac := range nd.acq {
				depth[ac] += len(nd.acq[ac].queue)
			}
			if nd.navUntilUs > nowUs {
				navSet++
			}
		}
		busy := m.busyUsAt(nowUs)
		busyFrac = max(busyFrac, (busy-s.prevBusyUs[i])/width)
		s.prevBusyUs[i] = busy
		overlap := m.overlapUsAt(nowUs)
		collFrac = max(collFrac, (overlap-s.prevOverlapUs[i])/width)
		s.prevOverlapUs[i] = overlap
	}
	for ac := 0; ac < int(NumACs); ac++ {
		bytes := sh.acBytesDelivered[ac]
		ser.AcGoodputMbps[ac] = append(ser.AcGoodputMbps[ac],
			float64(8*(bytes-s.prevAcBytes[ac]))/width)
		s.prevAcBytes[ac] = bytes
		ser.AcQueueDepth[ac] = append(ser.AcQueueDepth[ac], depth[ac])
		air := sh.acAirtimeUs[ac]
		ser.AcAirtimeUs[ac] = append(ser.AcAirtimeUs[ac], air-s.prevAcAirUs[ac])
		s.prevAcAirUs[ac] = air
	}
	s.navSet = append(s.navSet, navSet)
	ser.BusyFrac = append(ser.BusyFrac, busyFrac)
	ser.CollisionFrac = append(ser.CollisionFrac, collFrac)
}

// samples flushes every shard's partial window between its last tick
// and the run's end, so the delta columns telescope to exactly the run
// aggregates, and merges the shards' series window by window, in shard
// order: goodput, queue depth, airtime and NAV counts add up, and the
// busy and collision fractions take the max across shards, as they do
// across media. Every shard ticks at the same times, so their windows
// line up; a single shard's series passes through unchanged. collect
// calls it once.
func (n *Network) samples(durationUs float64) *SampleSeries {
	var out *SampleSeries
	var nav []int
	for _, sh := range n.shards {
		s := sh.sampler
		s.record(durationUs)
		if out == nil {
			out, nav = &s.series, s.navSet
			continue
		}
		for i := range out.TimeUs {
			for ac := 0; ac < int(NumACs); ac++ {
				out.AcGoodputMbps[ac][i] += s.series.AcGoodputMbps[ac][i]
				out.AcQueueDepth[ac][i] += s.series.AcQueueDepth[ac][i]
				out.AcAirtimeUs[ac][i] += s.series.AcAirtimeUs[ac][i]
			}
			out.BusyFrac[i] = max(out.BusyFrac[i], s.series.BusyFrac[i])
			out.CollisionFrac[i] = max(out.CollisionFrac[i], s.series.CollisionFrac[i])
			nav[i] += s.navSet[i]
		}
	}
	out.NavFrac = make([]float64, len(nav))
	for i, k := range nav {
		out.NavFrac[i] = float64(k) / float64(len(n.nodes))
	}
	return out
}
