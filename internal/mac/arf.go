package mac

// ARF (automatic rate fallback) is the classic 802.11 rate-adaptation
// rule: step the rate up after a run of consecutive successes, step it
// down after consecutive failures, and — the rule that makes the probe
// cheap — fall straight back when the first frame after an up-shift
// fails. Combined with the link model's PER-vs-SNR curves it reproduces
// the rate-vs-range staircase.

// ArfConfig tunes the adaptation thresholds.
type ArfConfig struct {
	UpAfter   int // consecutive successes before trying a faster rate
	DownAfter int // consecutive failures before falling back
}

// DefaultArf matches the original Lucent WaveLAN-II parameters.
func DefaultArf() ArfConfig { return ArfConfig{UpAfter: 10, DownAfter: 2} }

// ArfController is the per-link ARF state machine: packet-level
// simulators (internal/netsim) own one per destination and feed it
// every frame outcome.
type ArfController struct {
	cfg    ArfConfig
	nModes int
	idx    int
	// probing marks the first frame after an up-shift: original ARF
	// drops back on a single failure there, without waiting for
	// DownAfter consecutive losses.
	probing          bool
	succRun, failRun int
}

// NewArfController starts the controller at startIdx within a rate
// table of nModes entries (startIdx is clamped into range).
func NewArfController(cfg ArfConfig, nModes, startIdx int) *ArfController {
	if nModes <= 0 {
		panic("mac: ArfController needs at least one mode")
	}
	if startIdx < 0 {
		startIdx = 0
	}
	if startIdx >= nModes {
		startIdx = nModes - 1
	}
	return &ArfController{cfg: cfg, nModes: nModes, idx: startIdx}
}

// ModeIndex is the rate-table index the next frame should use.
func (a *ArfController) ModeIndex() int { return a.idx }

// Probing reports whether the next frame is the first after an up-shift.
func (a *ArfController) Probing() bool { return a.probing }

// OnSuccess records a delivered frame at the current rate.
func (a *ArfController) OnSuccess() {
	a.probing = false
	a.failRun = 0
	a.succRun++
	if a.succRun >= a.cfg.UpAfter && a.idx < a.nModes-1 {
		a.idx++
		a.succRun = 0
		a.probing = true
	}
}

// OnFailure records a lost frame at the current rate. A failed probe
// (first frame after an up-shift) falls back immediately; otherwise
// DownAfter consecutive failures trigger the fallback.
func (a *ArfController) OnFailure() {
	a.succRun = 0
	if a.probing {
		a.probing = false
		a.failRun = 0
		if a.idx > 0 {
			a.idx--
		}
		return
	}
	a.failRun++
	if a.failRun >= a.cfg.DownAfter && a.idx > 0 {
		a.idx--
		a.failRun = 0
	}
}

// OnVerdict adapts an aggregate A-MPDU delivery verdict onto the ARF
// state machine: any delivered MPDU counts as a success (the Block-ACK
// proved the rate workable), a fully lost burst as one failure.
func (a *ArfController) OnVerdict(delivered, total int) {
	if total <= 0 {
		return
	}
	if delivered > 0 {
		a.OnSuccess()
	} else {
		a.OnFailure()
	}
}
