package netsim

import (
	"repro/internal/linkmodel"
	"repro/internal/mac"
	"repro/internal/sim"
)

// Event-driven EDCA/DCF. Each node carries four access-category
// transmit queues (acQueue); each backlogged queue runs its own
// countdown — a single scheduled event at AIFS + slots·slotTime —
// frozen whenever the medium is sensed busy, the NAV is set, or the
// node itself is transmitting. Carrier sense cancels the event and
// banks the slots already elapsed; idle restores it. Two queues of
// DIFFERENT nodes expiring in the same slot both transmit and collide
// on the air, exactly as DCF does. Two queues of the SAME node expiring
// in the same slot resolve internally by the 802.11e virtual-collision
// rule: the highest category wins the transmit opportunity and the
// losers retry as if they had collided (window doubled, backoff
// redrawn). Legacy DCF is the degenerate table where every flow is
// coerced into AC_BE with DIFS/CW from mac.DcfConfig, so there is one
// effective queue per node and neither the arbitration nor the AIFS
// differentiation can fire.
//
// A winning queue obtains a Txop (txop.go) and fills it with exchanges
// assembled by the frame-sequence builder: optional RTS/CTS protection
// in front of a single MPDU closed by an ACK or an A-MPDU burst closed
// by a Block-ACK, chained SIFS-to-SIFS while the category's TXOP limit
// has room. The degenerate configuration — every TxopLimitUs zero,
// Config.Aggregation nil — plays exactly one data+ACK (or
// RTS—SIFS—CTS—SIFS—data+ACK) per channel access, reproducing the
// pre-TXOP simulator bit for bit.
//
// Only the RTS and the data frames are judged by SINR; the CTS is
// assumed decodable because the RTS just proved the reverse link. Both
// control frames advertise the remaining exchange duration, and every
// node that senses them raises its NAV for that long — so a station
// hidden from the data sender but in range of the receiver defers off
// the receiver's CTS, which is the whole point of the exchange.
//
// Everything here runs on the node's shard: events schedule on
// nd.sh.eng, randomness draws from nd.sh.src, counters charge nd.sh —
// so under sharded execution (shard.go) concurrent partitions never
// touch each other's state. With one shard these are exactly the old
// Network-global engine, source, and counters.

// slotEps absorbs float accumulation when dividing elapsed time into
// whole slots.
const slotEps = 1e-6

// acQueue is one access category's transmit queue plus its EDCA
// contention state. The per-node state that all categories share —
// physical carrier sense, NAV, the half-duplex transmitting flag —
// stays on Node.
type acQueue struct {
	node *Node
	ac   AC

	queue        []*packet
	cw           int
	backoffSlots int
	retries      int
	contending   bool
	boEvent      sim.EventRef
	boStartUs    float64
	fireAtUs     float64
	// fireFn is q.fire, bound on the first countdown so re-arming
	// allocates nothing.
	fireFn func()
}

// popFront removes the first k packets, keeping the backing array so
// later enqueues reuse its capacity.
func (q *acQueue) popFront(k int) {
	q.queue = q.queue[:copy(q.queue, q.queue[k:])]
}

// pushFront puts ps back at the head of the queue, in order.
func (q *acQueue) pushFront(ps []*packet) {
	n := len(q.queue)
	q.queue = append(q.queue, ps...)
	copy(q.queue[len(ps):], q.queue[:n])
	copy(q.queue, ps)
}

// params is the category's live EDCA parameter set.
func (q *acQueue) params() *AcParams { return &q.node.net.edca[q.ac] }

// enqueue appends a packet to its category's queue, kicking off
// contention if that queue was idle. Full queues drop the arrival
// (drop-tail per category) and charge both the flow and the per-AC
// counter.
func (nd *Node) enqueue(p *packet) bool {
	q := &nd.acq[p.ac]
	sh := nd.sh
	if len(q.queue) >= q.params().QueueLimit {
		sh.queueDrop[p.ac]++
		p.flow.queueDrops++
		if sh.probe != nil {
			sh.probe.OnEvent(Event{TimeUs: sh.eng.Now(), Kind: EvQueueDrop,
				AC: p.ac, Node: nd.id, Peer: -1, Bytes: p.bytes})
		}
		p.flow.fate(FateQueueDrop, p, sh.eng.Now())
		return false
	}
	nd.joinCS()
	q.queue = append(q.queue, p)
	if sh.probe != nil {
		sh.probe.OnEvent(Event{TimeUs: sh.eng.Now(), Kind: EvEnqueue,
			AC: p.ac, Node: nd.id, Peer: -1, Bytes: p.bytes,
			Value: float64(len(q.queue))})
	}
	if !q.contending && !nd.transmitting {
		q.startContention()
	}
	return true
}

// startContention draws a fresh backoff from the category's current
// window and arms the countdown (deferred while the medium is busy or
// reserved).
func (q *acQueue) startContention() {
	q.backoffSlots = q.node.sh.src.Intn(q.cw + 1)
	q.contending = true
	q.tryResume()
}

// recontend restarts contention after an exchange ends: every category
// with backlog and no live contention draws a backoff (unless a refill
// already did from inside enqueue), and categories frozen for the
// exchange re-arm their countdowns.
func (nd *Node) recontend() {
	for ac := range nd.acq {
		q := &nd.acq[ac]
		if len(q.queue) > 0 && !q.contending {
			q.startContention()
		} else if q.contending {
			q.tryResume()
		}
	}
	nd.maybeLeaveCS()
}

// tryResume arms the category's countdown event when the medium is
// physically idle, the NAV has expired, and the node is not mid-
// exchange. The event fires after a full AIFS plus the remaining
// backoff slots.
func (q *acQueue) tryResume() {
	nd := q.node
	if !q.contending || nd.transmitting || nd.busyCount > 0 || q.boEvent.Scheduled() {
		return
	}
	sh := nd.sh
	if nd.navUntilUs > sh.eng.Now()+slotEps {
		// Virtual carrier sense: the navEvent armed by setNav re-enters
		// here when the reservation lapses.
		return
	}
	p := q.params()
	q.boStartUs = sh.eng.Now() + p.AifsUs
	delay := p.AifsUs + float64(q.backoffSlots)*nd.net.cfg.Dcf.SlotUs
	q.fireAtUs = sh.eng.Now() + delay
	if q.fireFn == nil {
		q.fireFn = q.fire
	}
	q.boEvent = sh.eng.Schedule(delay, q.fireFn)
	if sh.probe != nil {
		sh.probe.OnEvent(Event{TimeUs: sh.eng.Now(), Kind: EvBackoffResume,
			AC: q.ac, Node: nd.id, Peer: -1, Value: float64(q.backoffSlots)})
	}
}

// tryResume re-arms every contending category (medium idle / NAV
// expiry / post-roam re-baseline).
func (nd *Node) tryResume() {
	for ac := range nd.acq {
		nd.acq[ac].tryResume()
	}
}

// fire is a countdown expiring. Sibling categories whose countdowns
// reached zero in this very slot lose the internal arbitration to the
// highest category — the 802.11e virtual collision — and the winner
// transmits.
func (q *acQueue) fire() {
	q.boEvent = sim.EventRef{}
	nd := q.node
	now := nd.sh.eng.Now()
	winner := q
	for ac := range nd.acq {
		s := &nd.acq[ac]
		if s == q || !s.boEvent.Scheduled() || s.fireAtUs > now+slotEps {
			continue
		}
		s.boEvent.Cancel()
		s.boEvent = sim.EventRef{}
		if s.ac > winner.ac {
			winner.virtualCollision()
			winner = s
		} else {
			s.virtualCollision()
		}
	}
	nd.transmit(winner)
}

// exchangeFailed moves the queue's contention state after a lost
// exchange or internal arbitration: count the retry and double the
// window — or, past the retry limit, reset the window and (when
// dropHead) abandon the head frame, as 802.11 does. Aggregated bursts
// pass dropHead false: their abandonment is per packet, decided by the
// Block-ACK bitmap.
func (q *acQueue) exchangeFailed(dropHead bool) {
	nd := q.node
	q.retries++
	if q.retries > nd.net.cfg.Dcf.RetryLimit {
		q.cw = q.params().CWMin
		q.retries = 0
		if dropHead && len(q.queue) > 0 {
			nd.sh.retryDrops[q.ac]++
			p := q.queue[0]
			q.popFront(1)
			p.flow.dropped(p, nd)
		}
	} else {
		q.cw = min(2*q.cw+1, q.params().CWMax)
	}
}

// virtualCollision applies the loser's side of internal arbitration:
// retry as if the frame had collided on the air — count the retry,
// double the window (or abandon the frame past the retry limit), and
// redraw the backoff. The queue stays contending; its countdown re-arms
// when the winner's exchange releases the medium.
func (q *acQueue) virtualCollision() {
	sh := q.node.sh
	sh.virtualColl++
	if sh.probe != nil {
		sh.probe.OnEvent(Event{TimeUs: sh.eng.Now(), Kind: EvVirtualCollision,
			AC: q.ac, Node: q.node.id, Peer: -1})
	}
	q.exchangeFailed(true)
	if len(q.queue) == 0 {
		q.contending = false
		return
	}
	q.backoffSlots = sh.src.Intn(q.cw + 1)
}

// pause reacts to the medium going busy: every armed countdown banks
// its elapsed slots and cancels. A countdown that had already reached
// zero in this very slot transmits anyway — the station cannot sense
// and abort within the slot, so it collides with the transmission that
// made the medium busy. Several of the node's own categories reaching
// zero together resolve by virtual collision first.
func (nd *Node) pause() {
	var ready *acQueue
	for ac := range nd.acq {
		q := &nd.acq[ac]
		if !q.boEvent.Scheduled() {
			continue
		}
		q.boEvent.Cancel()
		q.boEvent = sim.EventRef{}
		began := q.bankElapsedSlots()
		q.emitFreeze()
		if began && q.backoffSlots == 0 {
			if ready == nil {
				ready = q
			} else if q.ac > ready.ac {
				ready.virtualCollision()
				ready = q
			} else {
				q.virtualCollision()
			}
		}
	}
	if ready != nil {
		nd.transmit(ready)
	}
}

// freezeBackoff banks elapsed slots in every armed countdown without
// the collide-on-zero rule; roaming, NAV-setting, and the node's own
// transmit opportunity use it so none of them launches a transmission.
func (nd *Node) freezeBackoff() {
	for ac := range nd.acq {
		q := &nd.acq[ac]
		if !q.boEvent.Scheduled() {
			continue
		}
		q.boEvent.Cancel()
		q.boEvent = sim.EventRef{}
		q.bankElapsedSlots()
		q.emitFreeze()
	}
}

// emitFreeze reports a cancelled countdown to the probe. Callers bank
// the elapsed slots first, so the slots shown are post-bank — what the
// queue will resume with, matching what EvBackoffResume later shows.
// Pure observation: the probe-on and probe-off paths run the same MAC
// state transitions.
func (q *acQueue) emitFreeze() {
	sh := q.node.sh
	if sh.probe == nil {
		return
	}
	sh.probe.OnEvent(Event{TimeUs: sh.eng.Now(), Kind: EvBackoffFreeze,
		AC: q.ac, Node: q.node.id, Peer: -1, Value: float64(q.backoffSlots)})
}

// setNav extends the node's NAV to untilUs — virtual carrier sense from
// a decoded RTS or CTS duration field. The countdowns freeze without
// the collide-on-zero rule (the station decoded the reservation, so it
// defers cleanly) and a wake event re-arms contention at expiry. The
// NAV only grows here (an earlier reservation inside a longer one is
// absorbed); shrinkNav handles the standard's RTS NAV-reset rule. It
// reports whether the NAV was raised to exactly untilUs, so the caller
// can record adopters for a possible reset.
func (nd *Node) setNav(untilUs float64) bool {
	now := nd.sh.eng.Now()
	if untilUs <= nd.navUntilUs || untilUs <= now {
		return false
	}
	nd.freezeBackoff()
	nd.navUntilUs = untilUs
	nd.armNavEvent(untilUs)
	if sh := nd.sh; sh.probe != nil {
		sh.probe.OnEvent(Event{TimeUs: now, Kind: EvNavSet,
			Node: nd.id, Peer: -1, Value: untilUs})
	}
	return true
}

// shrinkNav cuts the node's NAV short, releasing contention at untilUs
// (or immediately if that is already past). Used when an RTS-advertised
// reservation dies: 802.11's NAV-reset rule frees stations that set
// their NAV from an RTS whose exchange never materialised.
func (nd *Node) shrinkNav(untilUs float64) {
	if untilUs >= nd.navUntilUs {
		return
	}
	sh := nd.sh
	if untilUs < sh.eng.Now() {
		untilUs = sh.eng.Now()
	}
	nd.navUntilUs = untilUs
	nd.armNavEvent(untilUs)
	if sh.probe != nil {
		sh.probe.OnEvent(Event{TimeUs: sh.eng.Now(), Kind: EvNavSet,
			Node: nd.id, Peer: -1, Value: untilUs})
	}
	nd.tryResume()
}

func (nd *Node) armNavEvent(untilUs float64) {
	nd.navEvent.Cancel()
	if nd.navExpireFn == nil {
		nd.navExpireFn = nd.navExpire
	}
	nd.navEvent = nd.sh.eng.At(untilUs, nd.navExpireFn)
}

// navExpire is the NAV lapsing: contention resumes.
func (nd *Node) navExpire() {
	nd.navEvent = sim.EventRef{}
	if sh := nd.sh; sh.probe != nil {
		sh.probe.OnEvent(Event{TimeUs: sh.eng.Now(), Kind: EvNavExpire,
			Node: nd.id, Peer: -1})
	}
	nd.tryResume()
}

// bankElapsedSlots subtracts the whole slots that elapsed since the
// countdown started. It reports whether the countdown phase (post-AIFS)
// had begun; during the AIFS nothing has elapsed.
func (q *acQueue) bankElapsedSlots() bool {
	elapsed := q.node.sh.eng.Now() - q.boStartUs
	if elapsed < -slotEps {
		return false
	}
	slots := int((elapsed + slotEps) / q.node.net.cfg.Dcf.SlotUs)
	if slots > q.backoffSlots {
		slots = q.backoffSlots
	}
	q.backoffSlots -= slots
	return true
}

// rateController is the per-destination adaptation state machine a node
// feeds frame outcomes: mac.ArfController and mac.MinstrelController
// both satisfy it. ModeIndex is consulted once per built exchange;
// OnSuccess/OnFailure report single-frame outcomes and OnVerdict the
// aggregate delivered-of-total Block-ACK verdict of an A-MPDU burst.
// RTS losses are reported to none of them — the data rate was never
// tested, and keeping collision losses out of the rate decision is
// exactly what RTS/CTS buys an adapting sender.
type rateController interface {
	ModeIndex() int
	OnSuccess()
	OnFailure()
	OnVerdict(delivered, total int)
}

// Dispatch constants for Network.rcKind, resolved from
// Config.RateControl at New time.
const (
	rcFixed = iota
	rcArf
	rcMinstrel
)

// dataMode picks the rate for the head-of-line frame: the per-frame
// rate controller when adaptation is on, otherwise the memoized
// median-SNR table lookup.
func (nd *Node) dataMode(rx *Node) linkmodel.Mode {
	c := nd.rcFor(rx)
	if c == nil {
		return nd.sh.linkMode(nd, rx)
	}
	return nd.net.cfg.Modes[c.ModeIndex()]
}

// rcFor returns the node's rate controller toward rx — nil under fixed
// selection — seeding a new one from the median-SNR selection on first
// use (a roam to a new AP therefore starts from a sensible rate rather
// than the table bottom).
func (nd *Node) rcFor(rx *Node) rateController {
	if nd.net.rcKind == rcFixed {
		return nil
	}
	if nd.rc == nil {
		nd.rc = make(map[int]rateController)
	}
	c := nd.rc[rx.id]
	if c == nil {
		start := nd.net.modeIndex(nd.sh.linkMode(nd, rx))
		if nd.net.rcKind == rcArf {
			c = mac.NewArfController(mac.DefaultArf(), len(nd.net.cfg.Modes), start)
		} else {
			c = mac.NewMinstrelController(mac.DefaultMinstrel(), nd.net.rcRates, start)
		}
		nd.rc[rx.id] = c
	}
	return c
}

// transmit is a queue winning contention: it obtains the transmit
// opportunity its category's TxopLimitUs allows and launches the first
// exchange the builder assembles. The node's other countdowns freeze
// for the duration — an EDCAF senses its own transmission as a busy
// medium.
func (nd *Node) transmit(q *acQueue) {
	q.contending = false
	nd.freezeBackoff()
	nd.transmitting = true
	sh := nd.sh
	nd.heldTxop = Txop{q: q, StartUs: sh.eng.Now(), LimitUs: q.params().TxopLimitUs}
	nd.txop = &nd.heldTxop
	sh.txops++
	if sh.probe != nil {
		sh.probe.OnEvent(Event{TimeUs: sh.eng.Now(), Kind: EvTxopOpen,
			AC: q.ac, Node: nd.id, Peer: -1, Value: q.params().TxopLimitUs})
	}
	nd.launch(nd.buildExchange(nd.txop))
}

// emitTxopClose reports the release of a held transmit opportunity,
// with the hold time as Value. Call before clearing nd.txop; a nil txop
// (the CTS responder's stand-down path) emits nothing.
func (nd *Node) emitTxopClose() {
	sh := nd.sh
	if sh.probe == nil || nd.txop == nil {
		return
	}
	now := sh.eng.Now()
	sh.probe.OnEvent(Event{TimeUs: now, Kind: EvTxopClose,
		AC: nd.txop.q.ac, Node: nd.id, Peer: -1, Value: now - nd.txop.StartUs})
}

// sendRts puts the short RTS on the air. Its SINR — not the data
// burst's — decides whether the exchange continues, so a hidden-node
// overlap costs plcp+RTS of airtime. The advertised NAV covers the
// rest of the exchange at the data mode chosen for this attempt.
func (nd *Node) sendRts(ex *exchange) {
	net := nd.net
	sh := nd.sh
	d := net.cfg.Dcf
	sh.rtsSent++
	nav := sh.eng.Now() + net.rtsAirUs() + d.SIFSUs + net.ctsAirUs() +
		d.SIFSUs + ex.dataAirUs()
	tr := sh.newTx(FrameRts, nd, ex.rx, ex.mpdus[0], ex, net.robustMode(), nav)
	nd.tr = tr
	nd.med.start(tr)
	if nd.rtsDoneFn == nil {
		nd.rtsDoneFn = nd.completeRts
	}
	sh.eng.Schedule(net.rtsAirUs(), nd.rtsDoneFn)
}

// completeRts judges the node's RTS (nd.tr) as it leaves the air.
// Success draws the receiver's CTS a SIFS later; failure (no CTS
// timeout in the real protocol) takes the shared retry path without
// having burned the data burst's airtime.
func (nd *Node) completeRts() {
	tr := nd.tr
	nd.med.finish(tr)
	sh := nd.sh
	ok := nd.med.succeeds(tr)
	if sh.probe != nil {
		sh.probe.OnEvent(Event{TimeUs: sh.eng.Now(), Kind: EvRxOutcome,
			Frame: FrameRts, AC: tr.pkt.ac, Node: nd.id, Peer: tr.rx.id,
			Mpdus: 1, Ok: ok, SinrDB: nd.med.sinrDB(tr), Mode: tr.mode.Name})
	}
	if !ok {
		sh.rtsFailed++
		nd.failRts(tr)
		return
	}
	if nd.ctsDueFn == nil {
		nd.ctsDueFn = nd.ctsDue
	}
	sh.eng.Schedule(nd.net.cfg.Dcf.SIFSUs, nd.ctsDueFn)
}

// ctsDue hands the node's successful RTS to its addressee a SIFS after
// it ended, for the CTS decision.
func (nd *Node) ctsDue() { nd.tr.rx.sendCts(nd.tr) }

// failRts ends an RTS that drew no CTS: NAV reset, the shared retry
// path, and the record's release — the RTS's last reader.
func (nd *Node) failRts(rts *transmission) {
	nd.tr = nil
	nd.releaseNav(rts)
	nd.fail(rts)
	nd.sh.freeTx(rts)
}

// releaseNav invokes 802.11's NAV-reset rule for a dead RTS
// reservation: stations that set their NAV from an RTS may release it
// when no exchange follows within 2·SIFS + CTS + 2·slots of the RTS
// end. Only adopters still holding exactly this reservation shrink —
// a NAV raised further by another frame stays.
func (nd *Node) releaseNav(rts *transmission) {
	d := nd.net.cfg.Dcf
	resetAt := rts.startUs + nd.net.rtsAirUs() + 2*d.SIFSUs + nd.net.ctsAirUs() + 2*d.SlotUs
	for _, adopter := range rts.navAdopters {
		if adopter.navUntilUs == rts.navUntilUs {
			adopter.shrinkNav(resetAt)
		}
	}
}

// sendCts answers a successful RTS from the receiver's side. The CTS
// rides the medium like any frame — raising carrier sense and
// interfering at other receivers — but is not itself judged: the RTS
// just proved the link. Crucially its NAV reaches stations hidden from
// the data sender but in range of the receiver, which is what rescues
// the hidden-terminal topology. Sender and responder share a medium,
// hence a shard, so the SIFS-later continuations stay on one engine.
func (nd *Node) sendCts(rts *transmission) {
	net := nd.net
	sh := nd.sh
	d := net.cfg.Dcf
	peer := rts.tx
	if nd.transmitting || nd.med != peer.med ||
		nd.navUntilUs > sh.eng.Now()+slotEps {
		// No CTS comes back: the receiver launched its own frame in the
		// SIFS gap (it decoded the RTS without being able to
		// carrier-sense it, so its countdown never paused), is mid-reply
		// to another captured RTS, a roam scan landing in the gap moved
		// it to another channel, or its own NAV marks the medium
		// reserved for a different exchange (802.11: respond with CTS
		// only if the NAV indicates idle). The sender retries on what
		// the real protocol calls a CTS timeout; the loss is a busy
		// receiver, not a channel error, so mark it doomed to keep it
		// out of the noise-loss column.
		rts.doomed = true
		peer.sh.rtsFailed++
		peer.failRts(rts)
		return
	}
	// A countdown armed since the RTS ended cannot have fired yet
	// (SIFS < DIFS and every AIFS); freeze it for the reply. The CTS
	// carries the PEER's packet, not one of ours: curPkt stays nil so a
	// roam handoff during the CTS airtime cannot mistake our own queued
	// head for an in-flight frame. An otherwise-idle responder joins
	// carrier-sense bookkeeping for the reply so its busyCount is live
	// when it stands down.
	nd.joinCS()
	nd.freezeBackoff()
	nd.transmitting = true
	nd.curPkt = nil
	nav := sh.eng.Now() + net.ctsAirUs() + d.SIFSUs + rts.ex.dataAirUs()
	tr := sh.newTx(FrameCts, nd, peer, rts.pkt, nil, net.robustMode(), nav)
	nd.tr = tr
	// The RTS has served its purpose: the data follows from the
	// sender's own exchange (peer.ex).
	peer.tr = nil
	peer.sh.freeTx(rts)
	nd.med.start(tr)
	if nd.ctsDoneFn == nil {
		nd.ctsDoneFn = nd.completeCts
	}
	sh.eng.Schedule(net.ctsAirUs(), nd.ctsDoneFn)
}

// completeCts ends the responder's CTS (nd.tr) and cues the solicited
// data a SIFS later.
func (nd *Node) completeCts() {
	tr := nd.tr
	nd.tr = nil
	nd.med.finish(tr)
	nd.transmitting = false
	// Honor the reservation this CTS just granted: the responder's own
	// contention holds until the exchange it solicited ends. Physical
	// carrier sense cannot be relied on here — the data sender may sit
	// below the responder's energy-detect threshold (decode-only
	// range), and a backoff firing mid-data would doom the very frame
	// the CTS invited.
	nd.setNav(tr.navUntilUs)
	// A packet that arrived while the CTS was on the air found the node
	// transmitting and skipped startContention; pick it up now. The
	// countdowns sendCts froze resume via tryResume at NAV end.
	nd.recontend()
	peer := tr.rx
	nd.sh.freeTx(tr)
	if peer.sendDataFn == nil {
		peer.sendDataFn = peer.sendHeldData
	}
	nd.sh.eng.Schedule(nd.net.cfg.Dcf.SIFSUs, peer.sendDataFn)
}

// sendHeldData sends the data portion of the node's current exchange —
// the continuation a CTS cues.
func (nd *Node) sendHeldData() { nd.sendData(&nd.ex) }

// sendData puts the exchange's data portion on the air — one MPDU
// awaiting an ACK, or an A-MPDU burst awaiting a Block-ACK — and
// schedules the outcome.
func (nd *Node) sendData(ex *exchange) {
	sh := nd.sh
	sh.modeAttempts[ex.mode.Name]++
	if nd.net.cfg.Aggregation != nil {
		sh.ampduHist[len(ex.mpdus)]++
	}
	for _, p := range ex.mpdus {
		p.flow.attemptedMpdu(ex.mode.RateMbps)
	}
	tr := sh.newTx(FrameData, nd, ex.rx, ex.mpdus[0], ex, ex.mode, 0)
	nd.tr = tr
	nd.med.start(tr)
	if nd.dataDoneFn == nil {
		nd.dataDoneFn = nd.completeData
	}
	sh.eng.Schedule(ex.dataAirUs(), nd.dataDoneFn)
}

// completeData is the node's data frame (nd.tr) leaving the air:
// complete judges it, after which nothing reads the record.
func (nd *Node) completeData() {
	tr := nd.tr
	nd.tr = nil
	nd.complete(tr)
	nd.sh.freeTx(tr)
}

// complete ends the exchange's data portion: judge it, update the ARF
// controller and windows, then either chain the next exchange of a held
// TXOP or stand down and contend for the next queued frames. A via-AP
// flow's first hop hands the packet to the AP's downlink queue instead
// of recording a flow delivery.
func (nd *Node) complete(tr *transmission) {
	nd.med.finish(tr)
	sh := nd.sh
	if tr.ex.ampdu {
		nd.completeAmpdu(tr)
		return
	}
	sh.acAirtimeUs[tr.pkt.ac] += tr.ex.airUs()
	ok := nd.med.succeeds(tr)
	if sh.probe != nil {
		sh.probe.OnEvent(Event{TimeUs: sh.eng.Now(), Kind: EvRxOutcome,
			Frame: FrameData, AC: tr.pkt.ac, Node: nd.id, Peer: tr.rx.id,
			Bytes: tr.pkt.bytes, Mpdus: 1, Ok: ok,
			SinrDB: nd.med.sinrDB(tr), Mode: tr.mode.Name})
	}
	if !ok {
		if c := nd.rcFor(tr.rx); c != nil {
			c.OnFailure()
		}
		nd.fail(tr)
		return
	}
	q := &nd.acq[tr.pkt.ac]
	deliver := func() {
		sh.delivered[tr.pkt.ac]++
		q.popFront(1)
		q.cw = q.params().CWMin
		q.retries = 0
		if c := nd.rcFor(tr.rx); c != nil {
			c.OnSuccess()
		}
		f := tr.pkt.flow
		if f.viaAP() && tr.rx.ap {
			// Relay via the destination's current AP, so the downlink leg
			// always rides the medium the destination is tuned to and roam
			// handoff always finds relay packets at the right AP.
			f.relayed(tr.pkt)
		} else {
			f.delivered(tr.pkt, sh.eng.Now(), nd)
		}
	}
	if tr.ex.t.LimitUs > 0 {
		// TXOP path: deliver with the opportunity held (transmitting
		// stays true, so a saturated refill tops the queue up without
		// starting contention), then chain the next exchange a SIFS
		// later if backlog remains — the limit itself is re-checked at
		// launch time against the rebuilt exchange. curPkt clears for
		// the gap: nothing is on the air, and a roam handoff landing in
		// it must treat every queued packet as movable.
		nd.curPkt = nil
		deliver()
		if len(q.queue) > 0 {
			nd.scheduleNextExchange()
			return
		}
		nd.endTxop()
		return
	}
	nd.transmitting = false
	nd.curPkt = nil
	nd.emitTxopClose()
	nd.txop = nil
	deliver()
	nd.recontend()
}

// fail is the shared no-ACK path for lost data frames and unanswered
// RTSs: classify the loss, double the window or abandon the frame past
// the retry limit, then contend again. A failed exchange forfeits the
// rest of the node's TXOP — the standard makes the holder re-contend
// after any unanswered frame. An RTS loss does NOT touch the ARF
// controller — the data rate was never tested, and keeping collision
// losses out of the rate decision is exactly what RTS/CTS buys an ARF
// sender.
func (nd *Node) fail(tr *transmission) {
	net := nd.net
	sh := nd.sh
	nd.transmitting = false
	nd.curPkt = nil
	nd.emitTxopClose()
	nd.txop = nil
	ac := tr.pkt.ac
	if tr.kind == FrameRts {
		// Only the RTS aired; data exchanges account their full span in
		// complete/completeAmpdu.
		sh.acAirtimeUs[ac] += net.rtsAirUs()
	}
	if tr.interfered(net.noiseFloorMw) {
		sh.collisions[ac]++
	} else {
		sh.noiseLoss[ac]++
	}
	q := &nd.acq[ac]
	if ex := tr.ex; ex != nil && ex.ampdu {
		// An unanswered RTS that was protecting an A-MPDU: the burst
		// never aired and its MPDUs left the queue at launch, so they
		// go back to the head before the shared retry logic runs.
		nd.failAmpduRts(q, ex)
		return
	}
	if ap := nd.roamedAway(tr.pkt); ap != nil {
		// The destination reassociated while this frame was in flight
		// (the one packet handoffDownlink must leave mid-exchange):
		// stop retrying from an AP the station no longer listens to and
		// hand the frame to its current AP, as the roam handoff does
		// for the rest of the queue.
		q.popFront(1)
		q.cw = q.params().CWMin
		q.retries = 0
		ap.enqueue(tr.pkt)
		nd.recontend()
		return
	}
	q.exchangeFailed(true)
	nd.recontend()
}

// roamedAway returns the current AP of p's destination station when
// that station reassociated away from nd, an AP still holding p, and
// nil otherwise. Such a frame goes to the new AP instead of being
// retried from one the station no longer listens to.
func (nd *Node) roamedAway(p *packet) *Node {
	if to := p.flow.To; nd.ap && to != nil && !to.ap && to.bss.AP != nd {
		return to.bss.AP
	}
	return nil
}

// failAmpduRts finishes the no-CTS path for a protected A-MPDU burst:
// the MPDUs return to the head of the queue in order (one whose
// destination roamed mid-exchange goes to its current AP instead), and
// the window moves per TXOP outcome — doubled, or, past the retry
// limit, reset while the head frame is shed like any over-retried
// frame.
func (nd *Node) failAmpduRts(q *acQueue, ex *exchange) {
	keep := nd.sh.pktScratch[:0]
	for _, p := range ex.mpdus {
		if ap := nd.roamedAway(p); ap != nil {
			p.retries = 0
			ap.enqueue(p)
			continue
		}
		keep = append(keep, p)
	}
	q.pushFront(keep)
	nd.sh.pktScratch = keep
	q.exchangeFailed(true)
	nd.recontend()
}
