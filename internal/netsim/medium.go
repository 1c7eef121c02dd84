package netsim

import (
	"math"
	"slices"

	"repro/internal/linkmodel"
	"repro/internal/mathx"
)

// medium is one radio channel: the set of nodes tuned to it and the
// transmissions currently on the air. In the legacy 20 MHz model BSSs
// on different channels get independent media, so co-channel
// deployments contend and overlap while channel-separated ones do not.
// With Config.ChannelWidthMHz 40 a medium is one spectrally connected
// component of bonded spans (Network.chanRoot): every BSS whose
// {Channel, Channel+1} span chains into the component shares the event
// timeline, and each transmission carries its own slot span so
// partially overlapping frames cross fractional interference while
// disjoint ones (bridged into the component by an intermediate
// channel) cross none.
type medium struct {
	net *Network
	// sh is the shard whose engine carries every event this medium's
	// frames schedule. Shard planning (shard.go) guarantees a medium's
	// members all live on one shard, so a medium never needs locking.
	sh      *shard
	channel int
	nodes   []*Node
	active  []*transmission

	// bonded mirrors Config.ChannelWidthMHz == 40: channel is then a
	// component root rather than a literal channel, and the hot paths
	// apply per-pair slot-overlap fractions.
	bonded bool

	// grid is the spatial index over node positions (spatial.go); nil
	// when Config.disableSpatialIndex keeps the brute-force scan as the
	// test oracle. nextOrd numbers membership so indexed candidate sets
	// can be replayed in exactly the brute-force iteration order. bufs
	// is a free stack of query buffers — a stack, not a single slice,
	// because start can re-enter itself through a carrier-sense pause
	// that launches a same-instant transmission.
	grid    *spatialGrid
	nextOrd int
	bufs    [][]*Node

	// union busy-time accounting for the airtime-fraction stat, plus
	// the overlap (≥2 concurrent frames — collision airtime) integral
	// the sampler's collision-fraction column reads.
	busyUs         float64
	busyStartUs    float64
	overlapUs      float64
	overlapStartUs float64
}

// busyUsAt / overlapUsAt close the running busy/overlap integrals at
// time nowUs without mutating them — the sampler reads mid-run.
func (m *medium) busyUsAt(nowUs float64) float64 {
	if len(m.active) > 0 {
		return m.busyUs + nowUs - m.busyStartUs
	}
	return m.busyUs
}

func (m *medium) overlapUsAt(nowUs float64) float64 {
	if len(m.active) > 1 {
		return m.overlapUs + nowUs - m.overlapStartUs
	}
	return m.overlapUs
}

// What is on the air is discriminated by FrameKind (probe.go): data
// frames and RTSs are judged by SINR at the receiver, the CTS is a pure
// reservation announcement (the RTS it answers already proved the
// link). The type is exported so trace events name frames the same way
// the medium does.

// contribution is one interference term this transmission added to a
// concurrent one, snapshotted at the moment it was added. finish
// subtracts exactly these milliwatts — recomputing the gain at finish
// time would unwind a different figure when an endpoint roamed
// mid-frame, leaving residue in the victim's interference sum. gen is
// the target's generation when the term was added: a target released
// and recycled since (framepool.go) is a different frame and is
// skipped.
type contribution struct {
	to  *transmission
	gen uint64
	mw  float64
}

// transmission is one frame in flight (a data+ACK exchange, an RTS, or
// a CTS). Interference at the receiver is tracked as a running sum of
// concurrent arrivals; the worst overlap decides the SINR the frame is
// judged at.
type transmission struct {
	kind    FrameKind
	tx, rx  *Node
	pkt     *packet
	mode    linkmodel.Mode
	startUs float64

	// chLo / chW are the frame's occupied 20 MHz slot span [chLo,
	// chLo+chW): the sender's primary channel, two slots wide when a
	// bonded medium carries a 40 MHz mode. Always width 1 on legacy
	// media, where every co-medium frame shares the one channel.
	chLo, chW int

	// color is the sender's BSS color, carried in the frame header so
	// listeners can tell inter-BSS frames apart for OBSS-PD spatial
	// reuse. scaleMw is the coupled TX-power backoff this frame was
	// sent at, as a linear power scale: ×1 normally, the network's
	// obssScaleMw when the frame was launched while an ignorable
	// inter-BSS frame was on the air (start decides). Every
	// received-power figure involving this frame — interference crossed
	// into concurrent ones, the signal term of its own SINR, and the
	// power listeners judge against the CS/OBSS-PD/NAV thresholds —
	// carries the backoff.
	color   int
	scaleMw float64

	// ex is the frame exchange this transmission belongs to (set on RTS
	// and data frames; pkt is its first MPDU). The CTS, sent by the
	// responder, carries only pkt.
	ex *exchange

	// navUntilUs, when positive, is the absolute time the frame's
	// duration field reserves the medium until; every node that senses
	// the frame raises its NAV to it (RTS and CTS carry one).
	navUntilUs float64

	curIntfMw float64
	maxIntfMw float64
	// contrib lists the interference this transmission crossed into
	// concurrent ones, with the added milliwatts snapshotted; done marks
	// the frame off the air so late subtractions skip it.
	contrib []contribution
	done    bool
	// doomed marks half-duplex conflicts: the receiver was (or began)
	// transmitting while this frame was on the air.
	doomed bool
	// sensed lists the nodes whose busyCount this transmission raised,
	// so finish decrements exactly that set even if gains shift or
	// membership changes (roaming) while the frame is in flight.
	sensed []*Node
	// shifted marks a frame that was on the air when roamScan moved
	// nodes. latent then lists the untracked nodes that deferred to it
	// at the gains before the move — the verdict an eagerly tracked node
	// holds for the rest of the frame — and a node that joins carrier
	// sense later takes that verdict instead of judging at moved gains.
	shifted bool
	latent  []*Node
	// navAdopters lists the nodes whose NAV this frame's reservation
	// raised, so an aborted RTS exchange can invoke the standard's
	// NAV-reset rule on exactly that set.
	navAdopters []*Node
	// gen counts the record's releases to the shard's frame pool.
	gen uint64
}

func (t *transmission) addInterference(mw float64) {
	t.curIntfMw += mw
	if t.curIntfMw > t.maxIntfMw {
		t.maxIntfMw = t.curIntfMw
	}
}

// dropNode removes nd from *list, keeping the others in order, and
// reports whether it was there.
func dropNode(list *[]*Node, nd *Node) bool {
	i := slices.Index(*list, nd)
	if i < 0 {
		return false
	}
	*list = slices.Delete(*list, i, i+1)
	return true
}

// insertSensed files nd into the release list at its membership
// position — exactly the slot the start-time scan would have given it —
// so the finish-time resume order (which schedules events, i.e. is
// simulation state) cannot tell a late joiner from a node sensed all
// along.
func (t *transmission) insertSensed(nd *Node) {
	i := len(t.sensed)
	for i > 0 && t.sensed[i-1].ord > nd.ord {
		i--
	}
	t.sensed = append(t.sensed, nil)
	copy(t.sensed[i+1:], t.sensed[i:])
	t.sensed[i] = nd
}

func (t *transmission) subInterference(mw float64) {
	t.curIntfMw -= mw
	if t.curIntfMw < 0 {
		// Float residue from summing many terms.
		t.curIntfMw = 0
	}
}

// addNode appends a node to the medium's membership, numbering it so
// candidate sets can be sorted back into membership order, and files it
// in the spatial index.
func (m *medium) addNode(nd *Node) {
	nd.ord = m.nextOrd
	m.nextOrd++
	m.nodes = append(m.nodes, nd)
	if m.grid != nil {
		m.grid.add(nd)
	}
}

// remove drops a node from the medium's membership (roam to another
// channel). Carrier-sense state is re-baselined by the caller.
func (m *medium) remove(nd *Node) {
	if m.grid != nil {
		m.grid.remove(nd)
	}
	dropNode(&m.nodes, nd)
}

// bruteScanCutoff is the membership size below which the linear scan
// beats the grid query (cell map lookups plus the membership-order sort
// cost more than walking a few dozen gain-matrix rows). The two paths
// are bit-for-bit equivalent, so the cutover is purely a speed choice.
const bruteScanCutoff = 64

// csCandidates returns the nodes the carrier-sense scan must consider
// for a transmission from tx: the whole membership when the index is
// off or the channel is small (the scan then filters on csTracked
// itself), otherwise the cached tracked-neighborhood list — already
// restricted to nodes with live carrier-sense state and sorted into
// membership order, the exact order the brute-force scan would visit
// (event scheduling depends on it).
func (m *medium) csCandidates(tx *Node) []*Node {
	if m.grid == nil || len(m.nodes) <= bruteScanCutoff {
		return m.nodes
	}
	return m.grid.hood(tx)
}

// navCandidates returns the nodes that could possibly decode tx's
// control frame and adopt its NAV — untracked nodes included, since an
// idle station's NAV matters the moment traffic arrives. pooled reports
// that the slice came from the buffer stack and must be returned via
// putBuf after the scan.
func (m *medium) navCandidates(tx *Node) (cands []*Node, pooled bool) {
	if m.grid == nil || len(m.nodes) <= bruteScanCutoff {
		return m.nodes, false
	}
	buf := m.getBuf()
	buf = m.grid.query(tx.X, tx.Y, m.net.navRangeM, buf)
	sortByOrd(buf)
	return buf, true
}

// sortByOrd restores membership order over the gathered cells.
// Insertion sort: each cell's bucket is already ascending in the common
// case (membership adds append in ord order; only roaming disturbs a
// bucket), so the input is a handful of nearly-sorted runs and the sort
// runs in about one comparison per element without the closure-call
// overhead of the generic sort.
func sortByOrd(nodes []*Node) {
	for i := 1; i < len(nodes); i++ {
		nd := nodes[i]
		j := i - 1
		for j >= 0 && nodes[j].ord > nd.ord {
			nodes[j+1] = nodes[j]
			j--
		}
		nodes[j+1] = nd
	}
}

func (m *medium) getBuf() []*Node {
	if n := len(m.bufs); n > 0 {
		b := m.bufs[n-1][:0]
		m.bufs = m.bufs[:n-1]
		return b
	}
	return nil
}

// csVerdict is what a listener's carrier sense makes of a frame on the
// air.
type csVerdict uint8

const (
	// csQuiet: the frame misses the listener's energy detect — below
	// CSThresholdDBm, or spectrally disjoint from its operating span.
	csQuiet csVerdict = iota
	// csIgnored: an inter-BSS frame inside the OBSS-PD window
	// [CSThresholdDBm, ObssPdThresholdDBm). It is heard, but it does
	// not defer the listener (spatial reuse).
	csIgnored
	// csBusy: the listener defers.
	csBusy
)

// hears is the one carrier-sense predicate: the verdict of listener nd
// on frame tr, and the power p, in milliwatts, it hears the frame at.
// p carries the frame's OBSS-PD TX-power backoff. On a bonded medium,
// energy detect integrates the listener's whole 40 MHz operating span
// {Channel, Channel+1}: a frame overlapping one of its two slots
// arrives at half power, a disjoint one not at all. Overlap fractions
// only lower the power, so the csRangeM-sized grid cells stay a
// conservative superset. The thresholds are precomputed in mW (csMw,
// obssPdMw), so the test is a multiply and two compares. Small enough
// to inline into the carrier-sense scan.
func (n *Network) hears(tr *transmission, nd *Node) (v csVerdict, p float64) {
	// Reading the gain row directly, not through rxPowerMw, keeps the
	// function inside the inlining budget.
	p = tr.tx.gain[nd.gi] * tr.scaleMw
	if n.bonded {
		// d is the frame's first slot relative to the listener's span:
		// the spans share a slot iff -chW < d < 2, and the listener's
		// span covers the frame iff 0 <= d <= 2-chW. A legacy medium is
		// one channel, so every listener covers every frame.
		d := tr.chLo - nd.bss.Channel
		if uint(d+tr.chW-1) > uint(tr.chW) {
			return
		}
		if uint(d) > uint(2-tr.chW) {
			p *= 0.5
		}
	}
	if p < n.csMw {
		return
	}
	if p < n.obssPdMw && tr.color != nd.bss.color {
		return csIgnored, p
	}
	return csBusy, p
}

// slotOverlap counts the 20 MHz slots spans [aLo, aLo+aW) and
// [bLo, bLo+bW) share.
func slotOverlap(aLo, aW, bLo, bW int) int {
	lo := max(aLo, bLo)
	hi := min(aLo+aW, bLo+bW)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// overlapFrac is the fraction of intf's transmit power that lands in
// victim's occupied span: a transmitter spreads its power evenly over
// its own chW slots and the victim's receiver integrates only the
// shared ones. Exactly 1 on legacy media (both spans are the single
// shared channel), 0 for spectrally disjoint frames that share a
// bonded component only through an intermediate channel.
func overlapFrac(intf, victim *transmission, bonded bool) float64 {
	if !bonded {
		return 1
	}
	return float64(slotOverlap(intf.chLo, intf.chW, victim.chLo, victim.chW)) /
		float64(intf.chW)
}

func (m *medium) putBuf(b []*Node) { m.bufs = append(m.bufs, b) }

// start puts tr on the air: it crosses interference with every active
// transmission, then raises carrier sense at nodes in range. Nodes
// whose backoff expires at exactly this instant transmit from inside
// the pause callback, which re-enters start — that recursion is the
// collision mechanism, not a bug.
func (m *medium) start(tr *transmission) {
	tr.chLo, tr.chW = tr.tx.bss.Channel, 1
	if m.bonded && tr.mode.BandwidthMHz > 20 {
		tr.chW = 2
	}
	tr.color = tr.tx.bss.color
	tr.scaleMw = 1
	if m.net.obssOn {
		// OBSS-PD coupling rule: a transmission launched while an
		// inter-BSS frame sits in the ignore window [CSThresholdDBm,
		// ObssPdThresholdDBm) is a spatial-reuse transmission and must
		// back its TX power off by the dB the deferral threshold was
		// relaxed. The window test is the listener's carrier sense from
		// the transmitter's seat.
		for _, a := range m.active {
			if a.tx == tr.tx {
				continue
			}
			if v, _ := m.net.hears(a, tr.tx); v == csIgnored {
				tr.scaleMw = m.net.obssScaleMw
				m.sh.obssReuseTx++
				break
			}
		}
	}
	if len(m.active) == 0 {
		m.busyStartUs = m.sh.eng.Now()
	} else if len(m.active) == 1 {
		m.overlapStartUs = m.sh.eng.Now()
	}
	prev := m.active
	m.active = append(m.active, tr)
	if m.sh.probe != nil {
		m.sh.probe.OnEvent(m.sh.txEvent(EvTxStart, tr))
	}

	// Snapshot the crossed interference only when gains can actually
	// change mid-frame (roamScan is the one thing that moves nodes);
	// on a static floor finish recomputes the identical figure from the
	// gain rows, sparing two list appends per overlapping pair in the
	// densest part of the hot loop.
	snap := m.net.cfg.RoamIntervalUs > 0
	for _, a := range prev {
		if a.rx == tr.tx {
			// The node a was addressed to is now talking over it.
			a.doomed = true
		}
		if a.rx != tr.tx {
			if f := overlapFrac(tr, a, m.bonded); f > 0 {
				mw := m.net.rxPowerMw(tr.tx, a.rx) * f * tr.scaleMw
				a.addInterference(mw)
				if snap {
					tr.contrib = append(tr.contrib, contribution{a, a.gen, mw})
				}
			}
		}
		if a.tx != tr.rx {
			if f := overlapFrac(a, tr, m.bonded); f > 0 {
				mw := m.net.rxPowerMw(a.tx, tr.rx) * f * a.scaleMw
				tr.addInterference(mw)
				if snap {
					a.contrib = append(a.contrib, contribution{tr, tr.gen, mw})
				}
			}
		}
	}
	if tr.rx.transmitting {
		tr.doomed = true
	}

	// sensed rides a pooled buffer: it lives exactly until finish, which
	// recycles it (joinCS and reassociate may insert into it mid-flight;
	// that only grows the pooled slice). Only csTracked nodes — the ones
	// with traffic, whose busyCount can matter — get carrier-sense
	// bookkeeping; an idle station's pause would be a no-op anyway, and
	// its busyCount is re-baselined from the active list the moment it
	// next has something to send (Node.joinCS). On a realistic dense
	// floor most associated stations are idle most of the time, so this
	// is the difference between touching the whole neighborhood per
	// frame and touching the handful of live contenders.
	tr.sensed = m.getBuf()
	for _, nd := range m.csCandidates(tr.tx) {
		if nd == tr.tx || !nd.csTracked {
			continue
		}
		switch v, p := m.net.hears(tr, nd); v {
		case csBusy:
			tr.sensed = append(tr.sensed, nd)
			nd.busyCount++
			if nd.busyCount == 1 {
				nd.pause()
			}
		case csIgnored:
			// The listener stays free to transmit (at the coupled power
			// backoff, which start applies when it does).
			m.sh.obssIgnores++
			if m.sh.probe != nil {
				m.sh.probe.OnEvent(Event{TimeUs: m.sh.eng.Now(), Kind: EvObssIgnore,
					Frame: tr.kind, AC: tr.pkt.ac, Node: nd.id, Peer: tr.tx.id, Value: mathx.LinearToDB(p)})
			}
		}
	}
	if tr.navUntilUs > 0 {
		// Virtual carrier sense: every node that can DECODE the control
		// frame adopts its duration-field reservation. Decoding reaches
		// well below the energy-detect CS threshold — preamble and
		// header ride the most robust mode — which is the whole point of
		// the CTS: a station hidden from the data sender (below CS) still
		// decodes the receiver's CTS and defers for the exchange. The
		// addressee is exempt (it must answer), and a half-duplex node
		// mid-transmission cannot decode what it partially overheard.
		cands, pooled := m.navCandidates(tr.tx)
		for _, nd := range cands {
			if nd == tr.tx || nd == tr.rx || nd.transmitting {
				continue
			}
			if m.bonded && slotOverlap(tr.chLo, tr.chW, nd.bss.Channel, 2) < tr.chW {
				// Decoding the duration field needs the whole frame:
				// a listener whose operating span does not cover the
				// frame's slots cannot adopt its reservation.
				continue
			}
			if m.net.obssOn && nd.bss.color != tr.color {
				// A decoded inter-BSS reservation below the OBSS-PD
				// threshold is ignorable for NAV too — spatial reuse
				// would be pointless if the color it ignores for energy
				// detect still parked it behind the frame's duration
				// field. For an inter-BSS frame the listener's span
				// fully covers, "not busy" is exactly "below
				// ObssPdThresholdDBm". Same-color reservations are
				// always honored.
				if v, _ := m.net.hears(tr, nd); v != csBusy {
					continue
				}
			}
			if m.net.rxPowerMw(tr.tx, nd)*tr.scaleMw >= m.net.navMw && nd.setNav(tr.navUntilUs) {
				tr.navAdopters = append(tr.navAdopters, nd)
			}
		}
		if pooled {
			m.putBuf(cands)
		}
	}
}

// finish takes tr off the air, unwinding exactly the interference
// milliwatts start snapshotted into still-airing transmissions (not a
// recomputed gain — an endpoint that roamed mid-frame would unwind a
// different figure than was added), and releasing carrier sense at
// exactly the nodes recorded in sensed (a roamer re-baselines itself by
// dropping out of those lists).
func (m *medium) finish(tr *transmission) {
	for i, a := range m.active {
		if a == tr {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	tr.done = true
	if len(m.active) == 0 {
		m.busyUs += m.sh.eng.Now() - m.busyStartUs
	} else if len(m.active) == 1 {
		m.overlapUs += m.sh.eng.Now() - m.overlapStartUs
	}
	if m.sh.probe != nil {
		m.sh.probe.OnEvent(m.sh.txEvent(EvTxEnd, tr))
	}
	if m.net.cfg.RoamIntervalUs > 0 {
		// Gains may have shifted mid-frame: unwind the snapshot.
		for _, c := range tr.contrib {
			if c.to.gen == c.gen && !c.to.done {
				c.to.subInterference(c.mw)
			}
		}
	} else {
		// Static gains: the matrix still holds exactly what start added
		// (channels never change without mobility, so the overlap
		// fraction recomputes identically too — including the frame's
		// own OBSS-PD power scale, fixed at launch).
		for _, a := range m.active {
			if a.rx != tr.tx {
				if f := overlapFrac(tr, a, m.bonded); f > 0 {
					a.subInterference(m.net.rxPowerMw(tr.tx, a.rx) * f * tr.scaleMw)
				}
			}
		}
	}
	for _, nd := range tr.sensed {
		nd.busyCount--
		if nd.busyCount == 0 {
			nd.tryResume()
		}
	}
	m.putBuf(tr.sensed[:0])
	tr.sensed = nil
}

// succeeds judges the finished frame: half-duplex conflicts and
// receivers that left the channel mid-frame always fail; otherwise the
// worst-overlap SINR is pushed through the mode's AWGN PER curve and a
// Bernoulli draw decides. A strong frame can survive a weak overlap —
// the capture effect — because its SINR stays above the waterfall. A
// CTS is never judged: the RTS it answers already proved the link, and
// protocol responses are not re-drawn.
func (m *medium) succeeds(tr *transmission) bool {
	if tr.kind == FrameCts {
		return true
	}
	if tr.doomed || tr.rx.med != m {
		return false
	}
	per := tr.mode.PERAwgn(m.sinrDB(tr))
	return m.sh.src.Float64() >= per
}

// sinrDB is the worst-overlap SINR the frame was received at — the
// figure every MPDU of an A-MPDU burst is judged against individually.
// A two-slot (40 MHz) frame integrates twice the noise bandwidth, the
// 3 dB sensitivity cost that makes bonding a real tradeoff at range;
// the mode thresholds themselves are width-independent per-symbol
// figures (linkmodel.HtModes), so the penalty lives here.
func (m *medium) sinrDB(tr *transmission) float64 {
	// scaleMw carries the OBSS-PD TX-power backoff: a spatial-reuse
	// frame pays its range cost right here, in its own signal term.
	sigMw := m.net.rxPowerMw(tr.tx, tr.rx) * tr.scaleMw
	noiseMw := m.net.noiseFloorMw * float64(tr.chW)
	return 10 * math.Log10(sigMw/(noiseMw+tr.maxIntfMw))
}

// interfered reports whether the frame saw meaningful co-channel
// energy, classifying failures as collisions rather than noise losses.
func (tr *transmission) interfered(noiseMw float64) bool {
	return tr.doomed || tr.maxIntfMw > 0.1*noiseMw
}
