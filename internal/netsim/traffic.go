package netsim

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// TrafficGen produces a flow's packet arrivals. Implementations are
// consumed by exactly one Flow (OnOff keeps burst state internally).
type TrafficGen interface {
	// Label names the traffic class in results ("cbr", "poisson", ...).
	Label() string
	// Bytes is the payload size of every packet the generator emits.
	Bytes() int
	// isSaturated marks full-buffer generators: they have no timed
	// arrivals and are refilled the moment a frame leaves the queue.
	isSaturated() bool
	// firstGapUs draws the delay to the first arrival, letting periodic
	// sources start out of phase with each other.
	firstGapUs(src *rng.Source) float64
	// nextGapUs draws the inter-arrival gap after each packet.
	nextGapUs(src *rng.Source) float64
	// validate panics when the generator's parameters cannot produce a
	// sane arrival process — a zero CBR interval schedules an unbounded
	// same-instant arrival storm, a zero Poisson rate yields Inf/NaN
	// gaps. Flow.start calls it before the first arrival is drawn.
	validate()
}

// checkPositive panics unless v is a finite, strictly positive number.
func checkPositive(gen, field string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		panic(fmt.Sprintf("netsim: %s.%s must be positive and finite, got %v", gen, field, v))
	}
}

// Saturated models a full-buffer sender: the queue is topped up after
// every delivery or drop, so the node contends continuously.
type Saturated struct{ PayloadBytes int }

func (s Saturated) Label() string                  { return "saturated" }
func (s Saturated) Bytes() int                     { return s.PayloadBytes }
func (s Saturated) isSaturated() bool              { return true }
func (s Saturated) firstGapUs(*rng.Source) float64 { return 0 }
func (s Saturated) nextGapUs(*rng.Source) float64  { return 0 }
func (s Saturated) validate() {
	checkPositive("Saturated", "PayloadBytes", float64(s.PayloadBytes))
}

// Poisson emits packets with exponential inter-arrival times at the
// given mean rate.
type Poisson struct {
	PayloadBytes int
	PktPerSec    float64
}

func (p Poisson) Label() string     { return "poisson" }
func (p Poisson) Bytes() int        { return p.PayloadBytes }
func (p Poisson) isSaturated() bool { return false }
func (p Poisson) firstGapUs(src *rng.Source) float64 {
	return src.Exponential(1e6 / p.PktPerSec)
}
func (p Poisson) nextGapUs(src *rng.Source) float64 {
	return src.Exponential(1e6 / p.PktPerSec)
}
func (p Poisson) validate() {
	checkPositive("Poisson", "PayloadBytes", float64(p.PayloadBytes))
	checkPositive("Poisson", "PktPerSec", p.PktPerSec)
}

// CBR emits fixed-size packets on a fixed interval, with a random
// initial phase so co-located CBR flows do not arrive in lockstep.
type CBR struct {
	PayloadBytes int
	IntervalUs   float64
}

func (c CBR) Label() string                      { return "cbr" }
func (c CBR) Bytes() int                         { return c.PayloadBytes }
func (c CBR) isSaturated() bool                  { return false }
func (c CBR) firstGapUs(src *rng.Source) float64 { return src.Float64() * c.IntervalUs }
func (c CBR) nextGapUs(*rng.Source) float64      { return c.IntervalUs }
func (c CBR) validate() {
	checkPositive("CBR", "PayloadBytes", float64(c.PayloadBytes))
	checkPositive("CBR", "IntervalUs", c.IntervalUs)
}

// OnOff is a bursty source: CBR arrivals during exponential on-periods
// separated by exponential silences. The first burst begins after one
// off-period.
type OnOff struct {
	PayloadBytes int
	IntervalUs   float64 // packet spacing inside a burst
	OnMeanUs     float64
	OffMeanUs    float64

	remainingOnUs float64
}

func (o *OnOff) Label() string     { return "onoff" }
func (o *OnOff) Bytes() int        { return o.PayloadBytes }
func (o *OnOff) isSaturated() bool { return false }
func (o *OnOff) firstGapUs(src *rng.Source) float64 {
	gap := src.Exponential(o.OffMeanUs)
	o.remainingOnUs = src.Exponential(o.OnMeanUs)
	return gap
}
func (o *OnOff) validate() {
	checkPositive("OnOff", "PayloadBytes", float64(o.PayloadBytes))
	checkPositive("OnOff", "IntervalUs", o.IntervalUs)
	checkPositive("OnOff", "OnMeanUs", o.OnMeanUs)
	checkPositive("OnOff", "OffMeanUs", o.OffMeanUs)
}
func (o *OnOff) nextGapUs(src *rng.Source) float64 {
	gap := o.IntervalUs
	o.remainingOnUs -= gap
	if o.remainingOnUs <= 0 {
		gap += src.Exponential(o.OffMeanUs)
		o.remainingOnUs = src.Exponential(o.OnMeanUs)
	}
	return gap
}

// Flow is one traffic stream described by a FlowSpec: From → To (nil
// To = the sender's current AP, so uplink flows follow roams), queued
// under access category AC.
type Flow struct {
	net  *Network
	From *Node
	To   *Node
	AC   AC
	Gen  TrafficGen

	// ac is the effective category frames contend under: AC when EDCA
	// is on, AC_BE under legacy DCF. src is the current injection node
	// — From, except for downlink flows, where handoffDownlink repoints
	// it at the destination's AP as the station roams.
	ac  AC
	src *Node

	// arriveFn is the timed arrival callback, bound once at start.
	arriveFn func()

	// control, when set, closes the loop: it hears every packet's
	// final fate and may inject traffic of its own (closedloop.go).
	control Control

	arrivals, deliveredN  int
	queueDrops, lineDrops int
	bytesDelivered        int
	delaysUs              []float64 // end-to-end delay samples (mean/max/p95)
	jitterUs              float64   // RFC 3550 smoothed interarrival jitter
	lastDelayUs           float64
	hasLast               bool
	saturated             bool

	// MPDU-attempt accounting for the MAC-efficiency stat: how many
	// data MPDUs carried this flow's packets onto the air, and the sum
	// of the PHY rates they rode (so goodput can be held against the
	// mean attempted rate even under ARF).
	mpduAttempts int
	rateSumMbps  float64
}

// attemptedMpdu records one on-air data MPDU carrying the flow at the
// given PHY rate.
func (f *Flow) attemptedMpdu(rateMbps float64) {
	f.mpduAttempts++
	f.rateSumMbps += rateMbps
}

// viaAP reports whether the flow is a STA↔STA stream relayed through
// the AP (two MAC hops: From→AP, then AP→To).
func (f *Flow) viaAP() bool {
	return !f.From.ap && f.To != nil && !f.To.ap
}

// start validates the generator, resolves the effective access
// category, and seeds the arrival process. A saturated flow begins with
// its full burst depth queued, so aggregation can fill an A-MPDU from
// the first transmit opportunity.
func (f *Flow) start() {
	f.Gen.validate()
	f.ac = f.AC
	if !f.net.edcaOn {
		f.ac = AC_BE
	}
	switch {
	case f.Gen.isSaturated():
		f.saturated = true
		f.topUp()
	default:
		if _, pull := f.Gen.(Pull); !pull {
			// Arrivals live on the injection node's shard: its engine
			// for the timers, its source for the gap draws. Planning
			// co-locates a flow's endpoints, so the stream never needs
			// to cross a seam. A Pull flow schedules nothing — its
			// Control injects on demand.
			sh := f.src.sh
			f.arriveFn = func() { f.arrive() }
			sh.eng.Schedule(f.Gen.firstGapUs(sh.src), f.arriveFn)
		}
	}
	if f.control != nil {
		f.control.Start()
	}
}

// arrive enqueues one packet at the flow's injection node and, for
// timed generators, schedules the next arrival. A full queue charges
// the flow's drop counter from inside enqueue; the report lets topUp
// stop instead of hammering a full queue.
func (f *Flow) arrive() bool {
	f.arrivals++
	sh := f.src.sh
	ok := f.src.enqueue(sh.newPacket(f, f.Gen.Bytes()))
	if f.saturated {
		return ok
	}
	sh.eng.Schedule(f.Gen.nextGapUs(sh.src), f.arriveFn)
	return ok
}

// burstDepth is how many packets a saturated flow keeps queued: one
// under single-frame exchanges (the legacy full-buffer model drip-feeds
// the queue), a whole A-MPDU's worth with aggregation on — a saturated
// sender's buffer is never the reason a burst runs short.
func (f *Flow) burstDepth() int {
	agg := f.net.cfg.Aggregation
	if agg == nil {
		return 1
	}
	d := agg.MaxAmpduFrames
	if lim := f.net.edca[f.ac].QueueLimit; d > lim {
		d = lim
	}
	return d
}

// queuedAtSrc counts the flow's own packets waiting at its injection
// node (the per-AC queue may be shared with other flows).
func (f *Flow) queuedAtSrc() int {
	cnt := 0
	for _, p := range f.src.acq[f.ac].queue {
		if p.flow == f {
			cnt++
		}
	}
	return cnt
}

// topUp fills a saturated flow's queue back to its burst depth. One
// queue scan decides how many arrivals are owed — arrive/enqueue is
// synchronous, so nothing changes the queue between them.
func (f *Flow) topUp() {
	for owed := f.burstDepth() - f.queuedAtSrc(); owed > 0; owed-- {
		if !f.arrive() {
			return
		}
	}
}

// refill tops a saturated flow back up after its packet left the source
// queue. tx is the node whose queue the packet just departed: the relay
// leg of a via-AP flow already refilled when the source handed the
// packet to the AP, so the AP-side departure must not refill again.
func (f *Flow) refill(tx *Node) {
	if f.saturated && !(f.viaAP() && tx.ap) {
		f.topUp()
	}
}

// relayed hands a via-AP flow's packet from its first hop to the
// destination's CURRENT AP (an ideal distribution system forwards
// between APs for free), preserving the arrival timestamp so delay
// stays end-to-end. A full AP queue drops it there. That AP always
// shares the relaying node's shard: planning co-shards every BSS a flow
// touches, and mobility forces one engine.
func (f *Flow) relayed(p *packet) {
	f.To.bss.AP.enqueue(p)
	if f.saturated {
		f.topUp()
	}
}

// delivered records a successful final-hop frame and refills saturated
// flows. tx is the transmitting node of the final hop.
func (f *Flow) delivered(p *packet, nowUs float64, tx *Node) {
	f.deliveredN++
	f.bytesDelivered += p.bytes
	tx.sh.acBytesDelivered[p.ac] += p.bytes
	// bssBytes is indexed by BSS, and BSSs never span shards, so
	// concurrent shards write disjoint slots of the shared slice.
	f.net.bssBytes[tx.bss.idx] += p.bytes
	d := nowUs - p.arrivalUs
	f.delaysUs = append(f.delaysUs, d)
	if f.hasLast {
		diff := d - f.lastDelayUs
		if diff < 0 {
			diff = -diff
		}
		f.jitterUs += (diff - f.jitterUs) / 16
	}
	f.lastDelayUs, f.hasLast = d, true
	f.refill(tx)
	f.fate(FateDelivered, p, nowUs)
}

// dropped records a retry-limit drop at tx and refills saturated flows.
func (f *Flow) dropped(p *packet, tx *Node) {
	f.lineDrops++
	f.refill(tx)
	f.fate(FateRetryDrop, p, tx.sh.eng.Now())
}
