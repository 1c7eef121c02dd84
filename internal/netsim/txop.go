package netsim

import (
	"slices"

	"repro/internal/linkmodel"
)

// The TXOP frame-exchange layer. A queue that wins contention no longer
// fires a hard-coded frame pattern: it obtains a Txop bounded by its
// category's AcParams.TxopLimitUs and fills it with exchanges assembled
// by buildExchange. One exchange is the composable unit — optional
// RTS/CTS protection in front of either a single MPDU closed by an ACK
// or an A-MPDU burst closed by a Block-ACK — and a TXOP with a nonzero
// limit chains exchanges SIFS-to-SIFS until the next one would no
// longer fit. The degenerate configuration (all limits zero,
// Config.Aggregation nil) plays exactly one single-MPDU exchange per
// channel access, reproducing the pre-TXOP simulator bit for bit; the
// compat goldens in testdata pin that down.
//
// The SIFS gap between chained exchanges needs no extra reservation
// machinery: SIFS is shorter than every AIFS/DIFS, so no contender can
// complete its arbitration inter-frame space before the holder's next
// frame raises carrier sense again.

// Txop is one transmit opportunity: the contention win that lets a
// queue run one or more frame exchanges without re-contending.
type Txop struct {
	q *acQueue

	// StartUs is when the winning backoff expired; LimitUs is the
	// category's TXOP limit (0 = a single exchange).
	StartUs float64
	LimitUs float64
}

// exchange is one frame sequence inside a Txop, assembled by
// buildExchange.
type exchange struct {
	t    *Txop
	rx   *Node
	mode linkmodel.Mode

	// mpdus are the queued packets this exchange carries. One MPDU
	// rides a plain data+ACK; with ampdu set the whole slice rides one
	// A-MPDU under a single preamble, judged per MPDU and closed by a
	// Block-ACK.
	mpdus []*packet
	ampdu bool

	// protect opens the exchange with RTS — SIFS — CTS.
	protect bool
}

// buildExchange assembles the next exchange of t from the head of its
// queue: resolve the receiver and data mode, then — with aggregation on
// — extend the burst over the maximal queue prefix bound for the same
// receiver under the MaxAmpduFrames/MaxAmpduBytes caps, trimmed so the
// whole exchange fits in the TXOP's remaining time (a lone MPDU too
// long for the limit still goes out — fragmentation is not modelled —
// which matters only for the opening exchange; chained ones are
// fit-checked at launch). RTS/CTS protection triggers on the
// exchange's total payload. The exchange is the node's own nd.ex,
// overwritten in place with its mpdus backing array kept.
func (nd *Node) buildExchange(t *Txop) *exchange {
	q := t.q
	head := q.queue[0]
	rx := head.dest(nd)
	ex := &nd.ex
	*ex = exchange{t: t, rx: rx, mode: nd.dataMode(rx), mpdus: append(ex.mpdus[:0], head)}
	if agg := nd.net.cfg.Aggregation; agg != nil {
		bytes := head.bytes
		for _, p := range q.queue[1:] {
			if len(ex.mpdus) >= agg.MaxAmpduFrames || p.dest(nd) != rx ||
				bytes+p.bytes > agg.MaxAmpduBytes {
				break
			}
			bytes += p.bytes
			ex.mpdus = append(ex.mpdus, p)
		}
	}
	ex.finalize(nd)
	if agg := nd.net.cfg.Aggregation; agg != nil && agg.MaxAmpduAirUs > 0 {
		// The PPDU duration cap: trim the burst until its data portion
		// fits, whatever mode the rate controller picked.
		for len(ex.mpdus) > 1 && ex.dataAirUs() > agg.MaxAmpduAirUs {
			ex.mpdus = ex.mpdus[:len(ex.mpdus)-1]
			ex.finalize(nd)
		}
	}
	if t.LimitUs > 0 {
		remaining := t.LimitUs + slotEps - (nd.sh.eng.Now() - t.StartUs)
		for len(ex.mpdus) > 1 && ex.airUs() > remaining {
			ex.mpdus = ex.mpdus[:len(ex.mpdus)-1]
			ex.finalize(nd)
		}
	}
	return ex
}

// finalize recomputes the burst/protection flags from the current MPDU
// set (the TXOP-limit trim shrinks it after gathering).
func (ex *exchange) finalize(nd *Node) {
	ex.ampdu = len(ex.mpdus) > 1
	ex.protect = nd.net.cfg.RtsThresholdBytes > 0 && ex.totalBytes() >= nd.net.cfg.RtsThresholdBytes
}

// totalBytes is the exchange's summed MPDU payload.
func (ex *exchange) totalBytes() int {
	b := 0
	for _, p := range ex.mpdus {
		b += p.bytes
	}
	return b
}

// dataAirUs is the medium occupancy of the exchange's data portion
// including its closing ACK or Block-ACK.
func (ex *exchange) dataAirUs() float64 {
	net := ex.t.q.node.net
	if ex.ampdu {
		return net.ampduAirUs(ex.mode, ex.totalBytes())
	}
	return net.airtimeUs(ex.mode, ex.mpdus[0].bytes)
}

// airUs is the exchange's full medium span, RTS/CTS protection
// included.
func (ex *exchange) airUs() float64 {
	air := ex.dataAirUs()
	if ex.protect {
		net := ex.t.q.node.net
		air += net.rtsAirUs() + net.cfg.Dcf.SIFSUs + net.ctsAirUs() + net.cfg.Dcf.SIFSUs
	}
	return air
}

// launch opens one exchange of the node's current TXOP: charge the
// attempt, take A-MPDU packets out of the queue (they come back through
// the Block-ACK bitmap if lost), and put the first frame on the air —
// the RTS when the exchange is protected, the data burst otherwise.
func (nd *Node) launch(ex *exchange) {
	pkt := ex.mpdus[0]
	nd.curPkt = pkt
	nd.sh.attempts[pkt.ac]++
	if ex.ampdu {
		ex.t.q.popFront(len(ex.mpdus))
	}
	if ex.protect {
		nd.sendRts(ex)
		return
	}
	nd.sendData(ex)
}

// nextExchange continues a held TXOP one SIFS after the previous
// exchange ended. The exchange is rebuilt from the live queue head —
// never from state planned before the gap, which a roam handoff in the
// SIFS could have invalidated — and launched only if it still fits
// inside the limit; otherwise the opportunity is released.
func (nd *Node) nextExchange() {
	t := nd.txop
	if len(t.q.queue) > 0 {
		ex := nd.buildExchange(t)
		if nd.sh.eng.Now()+ex.airUs()-t.StartUs <= t.LimitUs+slotEps {
			nd.launch(ex)
			return
		}
	}
	nd.endTxop()
}

// scheduleNextExchange continues the held TXOP a SIFS from now.
func (nd *Node) scheduleNextExchange() {
	if nd.nextExchangeFn == nil {
		nd.nextExchangeFn = nd.nextExchange
	}
	nd.sh.eng.Schedule(nd.net.cfg.Dcf.SIFSUs, nd.nextExchangeFn)
}

// endTxop releases the transmit opportunity: the node stands down as a
// transmitter and every backlogged category re-enters contention with a
// fresh arbitration inter-frame space, exactly as after a single
// exchange.
func (nd *Node) endTxop() {
	nd.transmitting = false
	nd.curPkt = nil
	nd.emitTxopClose()
	nd.txop = nil
	nd.recontend()
}

// holdsTxop reports whether the TXOP both allows another exchange and
// has backlog to fill it.
func (nd *Node) holdsTxop() bool {
	t := nd.txop
	return t != nil && t.LimitUs > 0 && len(t.q.queue) > 0
}

// completeAmpdu judges a finished A-MPDU burst MPDU by MPDU: every MPDU
// is drawn independently against the mode's PER at the burst's
// worst-overlap SINR (none survive when the receiver was busy or gone),
// and the resulting bitmap feeds the Block-ACK protocol. The bitmap
// lives in the shard's scratch buffer: it is dead once applyBlockAck
// returns.
func (nd *Node) completeAmpdu(tr *transmission) {
	sh := nd.sh
	ok := slices.Grow(sh.okScratch[:0], len(tr.ex.mpdus))[:len(tr.ex.mpdus)]
	clear(ok)
	sh.okScratch = ok
	if !(tr.doomed || tr.rx.med != nd.med) {
		per := tr.mode.PERAwgn(nd.med.sinrDB(tr))
		for i := range ok {
			ok[i] = sh.src.Float64() >= per
		}
	}
	if sh.probe != nil {
		any := false
		for _, o := range ok {
			any = any || o
		}
		sh.probe.OnEvent(Event{TimeUs: sh.eng.Now(), Kind: EvRxOutcome,
			Frame: FrameData, AC: tr.pkt.ac, Node: nd.id, Peer: tr.rx.id,
			Bytes: tr.ex.totalBytes(), Mpdus: len(ok), Ok: any,
			SinrDB: nd.med.sinrDB(tr), Bitmap: ampduBitmap(ok), Mode: tr.mode.Name})
	}
	nd.applyBlockAck(tr, ok)
}

// applyBlockAck plays out the Block-ACK protocol for a judged burst. If
// anything got through, the Block-ACK comes back and its bitmap
// retransmits exactly the failed subset: those packets return to the
// head of the queue in their original order, each carrying its own
// retry count. If nothing got through, no Block-ACK returns and the
// whole burst retries. Contention state moves per TXOP outcome: a
// received Block-ACK resets the window even when individual MPDUs
// failed; a silent medium doubles it. ARF sees the same aggregate
// verdict.
func (nd *Node) applyBlockAck(tr *transmission, ok []bool) {
	net := nd.net
	sh := nd.sh
	ex := tr.ex
	q := ex.t.q
	ac := tr.pkt.ac
	sh.acAirtimeUs[ac] += ex.airUs()
	// The burst is off the air; a requeued head MPDU must not read as
	// in-flight to a roam handoff landing in the chained-SIFS gap.
	nd.curPkt = nil
	delivered := 0
	for _, o := range ok {
		if o {
			delivered++
		}
	}
	if c := nd.rcFor(tr.rx); c != nil {
		// The aggregate per-A-MPDU verdict: ARF maps it onto its
		// historical delivered>0 success rule, Minstrel uses the full
		// delivered-of-total ratio to update the entry's EWMA.
		c.OnVerdict(delivered, len(ok))
	}
	interfered := tr.interfered(net.noiseFloorMw)
	requeue := sh.pktScratch[:0]
	for i, p := range ex.mpdus {
		if ok[i] {
			sh.delivered[ac]++
			if p.flow.viaAP() && tr.rx.ap {
				p.flow.relayed(p)
			} else {
				p.flow.delivered(p, sh.eng.Now(), nd)
			}
			continue
		}
		if interfered {
			sh.collisions[ac]++
		} else {
			sh.noiseLoss[ac]++
		}
		if ap := nd.roamedAway(p); ap != nil {
			p.retries = 0
			ap.enqueue(p)
			continue
		}
		p.retries++
		if p.retries > net.cfg.Dcf.RetryLimit {
			sh.retryDrops[ac]++
			p.flow.dropped(p, nd)
			continue
		}
		if delivered > 0 {
			sh.blockAckRetries++
		}
		requeue = append(requeue, p)
	}
	q.pushFront(requeue)
	sh.pktScratch = requeue
	if sh.probe != nil {
		sh.probe.OnEvent(Event{TimeUs: sh.eng.Now(), Kind: EvBlockAck,
			AC: ac, Node: nd.id, Peer: tr.rx.id, Mpdus: len(ok),
			Ok: delivered > 0, Bitmap: ampduBitmap(ok),
			Value: float64(len(requeue))})
	}

	if delivered > 0 {
		q.cw = q.params().CWMin
		q.retries = 0
	} else {
		q.exchangeFailed(false)
	}
	if delivered > 0 && nd.holdsTxop() {
		nd.scheduleNextExchange()
		return
	}
	nd.endTxop()
}
