package mac

// Minstrel-style sampling rate control, the scheme that replaced ARF in
// practice once ladders stopped being one-dimensional: 802.11n offers
// MCS x spatial streams x channel width, and "step up after N
// successes" has no notion of which neighbor to step to. Minstrel
// instead keeps an EWMA delivery probability per ladder entry, serves
// the entry with the best expected throughput (rate x probability), and
// spends a small fraction of frames probing other entries so the
// estimates track the channel. The controller is deliberately
// deterministic — sampling is a round-robin sweep, not a random draw —
// so simulations stay bit-reproducible and observation-equivalent.

// MinstrelConfig tunes the sampler.
type MinstrelConfig struct {
	// EwmaWeight is the weight of the newest per-verdict delivery
	// observation in (0, 1]; smaller values average over more history.
	EwmaWeight float64
	// SampleEvery makes every SampleEvery-th frame a sampling probe of a
	// non-best ladder entry (>= 2; ~10% sampling at 10, matching the
	// original Minstrel's lookaround budget).
	SampleEvery int
}

// DefaultMinstrel returns the standard sampling parameters.
func DefaultMinstrel() MinstrelConfig { return MinstrelConfig{EwmaWeight: 0.25, SampleEvery: 10} }

// deadProb is the EWMA delivery probability under which a ladder entry
// is considered dead and probed at 1/4 of its round-robin turns — the
// throttle that keeps a long ladder's hopeless top entries from eating
// the sampling budget at long range.
const deadProb = 0.05

// MinstrelController adapts over one rate ladder for one link. Feed it
// the per-exchange delivery verdict (delivered-of-total for an A-MPDU,
// 1-of-1 or 0-of-1 for a single frame) via OnVerdict; the verdict is
// charged to the entry the preceding ModeIndex call returned.
type MinstrelController struct {
	cfg   MinstrelConfig
	rates []float64 // Mbps per ladder index, any order

	prob  []float64 // EWMA delivery probability per entry
	tried []bool
	skip  []int // decimation counters for dead entries

	best     int // entry with the best measured throughput
	cur      int // entry handed out by the last ModeIndex call
	calls    int
	sampleAt int // round-robin sampling cursor
}

// NewMinstrelController starts a controller over rates (Mbps per ladder
// index) at startIdx (clamped into range), which seeds the best-known
// entry until measurements arrive.
func NewMinstrelController(cfg MinstrelConfig, rates []float64, startIdx int) *MinstrelController {
	if len(rates) == 0 {
		panic("mac: MinstrelController needs at least one rate")
	}
	if cfg.EwmaWeight <= 0 || cfg.EwmaWeight > 1 {
		panic("mac: MinstrelConfig.EwmaWeight must be in (0, 1]")
	}
	if cfg.SampleEvery < 2 {
		panic("mac: MinstrelConfig.SampleEvery must be at least 2")
	}
	if startIdx < 0 {
		startIdx = 0
	}
	if startIdx >= len(rates) {
		startIdx = len(rates) - 1
	}
	return &MinstrelController{
		cfg:   cfg,
		rates: rates,
		prob:  make([]float64, len(rates)),
		tried: make([]bool, len(rates)),
		skip:  make([]int, len(rates)),
		best:  startIdx,
		cur:   startIdx,
	}
}

// throughput is the expected goodput of entry i in Mbps (zero until
// tried).
func (c *MinstrelController) throughput(i int) float64 {
	if !c.tried[i] {
		return 0
	}
	return c.prob[i] * c.rates[i]
}

// ModeIndex returns the ladder index the next frame should use: the
// best-throughput entry, except that every SampleEvery-th call probes
// the next candidate in a round-robin sweep.
func (c *MinstrelController) ModeIndex() int {
	c.calls++
	if c.calls%c.cfg.SampleEvery == 0 {
		c.cur = c.nextSample()
	} else {
		c.cur = c.best
	}
	return c.cur
}

// nextSample picks the next probe target: the round-robin sweep skips
// the current best, skips entries too slow to ever beat it, and probes
// dead entries (EWMA probability under deadProb) only every fourth turn.
func (c *MinstrelController) nextSample() int {
	bestTp := c.throughput(c.best)
	for k := 0; k < len(c.rates); k++ {
		j := c.sampleAt % len(c.rates)
		c.sampleAt++
		if j == c.best {
			continue
		}
		// Even at 100% delivery this entry cannot beat the incumbent.
		if c.rates[j] <= bestTp {
			continue
		}
		if c.tried[j] && c.prob[j] < deadProb {
			c.skip[j]++
			if c.skip[j]%4 != 0 {
				continue
			}
		}
		return j
	}
	return c.best
}

// OnVerdict records a delivery verdict — delivered of total MPDUs — for
// the entry the last ModeIndex call returned, then re-elects the
// best-throughput entry.
func (c *MinstrelController) OnVerdict(delivered, total int) {
	if total <= 0 {
		return
	}
	obs := float64(delivered) / float64(total)
	if i := c.cur; !c.tried[i] {
		c.tried[i] = true
		c.prob[i] = obs
	} else {
		w := c.cfg.EwmaWeight
		c.prob[i] = (1-w)*c.prob[i] + w*obs
	}
	c.rebest()
}

// OnSuccess and OnFailure adapt single-frame outcomes onto the verdict
// interface shared with ArfController.
func (c *MinstrelController) OnSuccess() { c.OnVerdict(1, 1) }

// OnFailure records a lost single frame at the current entry.
func (c *MinstrelController) OnFailure() { c.OnVerdict(0, 1) }

// rebest re-elects the measured-throughput winner. Ties (including the
// all-dead case, where every measured throughput is ~zero) resolve to
// the lowest ladder index, which HtModes and OfdmModes order
// most-robust-first.
func (c *MinstrelController) rebest() {
	best, bestTp := -1, 0.0
	for i := range c.rates {
		if !c.tried[i] {
			continue
		}
		if tp := c.throughput(i); best < 0 || tp > bestTp {
			best, bestTp = i, tp
		}
	}
	if best < 0 {
		return // nothing measured yet; keep the seeded start index
	}
	if bestTp <= 0 {
		best = 0
	}
	c.best = best
}
