package netsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
)

// csInvariantProbe audits the carrier-sense and interference
// bookkeeping at every frame end. medium.finish reports EvTxEnd after
// taking the frame off the active list but before releasing its
// carrier sense and unwinding its interference, so at that instant the
// frames still holding state are F = the active frames plus the
// finishing one, and:
//
//   - each node's busyCount equals the number of frames in F whose
//     sensed list holds it;
//   - every sensed list is strictly ascending in membership order (ord),
//     the order finish resumes nodes in;
//   - only untracked nodes hold latent verdicts (a tracked node's
//     verdict is its presence in the sensed list);
//   - on a static floor, each active frame's curIntfMw equals the sum
//     the frames in F cross into it, recomputed from the gain matrix.
//
// At every frame start it also checks that the gains the frame reads
// are stored (tx.gain[rx.gi] means nothing across gain domains): its
// sender and receiver share a gain domain, and so does every other
// sender on its medium, whose power crosses into its receiver. And it
// fails on any NaN gain a frame start or a reassociation reads, or any
// NaN SINR a frame is judged at: under the poisonSkippedGains oracle the
// roam tick writes NaN into every cell it skips (gainState.readable), so
// a NaN read is a read of a cell the tick left stale (nanRead,
// nanRoam).
//
// The probe tracks F itself: at EvTxStart the new frame is the last
// entry of its sender's medium's active list, and at EvTxEnd the
// finishing frame is the tracked one already marked done.
type csInvariantProbe struct {
	n      *Network
	dom    []int // gain domain by node id, read once the network is built
	live   []liveFrame
	checks int
	err    error
}

type liveFrame struct {
	tr *transmission
	m  *medium
}

func (p *csInvariantProbe) OnEvent(ev Event) {
	if p.err != nil {
		return
	}
	switch ev.Kind {
	case EvTxStart:
		m := p.n.nodes[ev.Node].med
		lf := liveFrame{m.active[len(m.active)-1], m}
		p.err = p.checkDomains(ev, lf)
		if p.err == nil {
			p.err = p.nanRead(ev, lf)
		}
		p.live = append(p.live, lf)
	case EvTxEnd:
		p.err = p.check(ev)
		for i, lf := range p.live {
			if lf.tr.done {
				p.live = append(p.live[:i], p.live[i+1:]...)
				break
			}
		}
	case EvRoam:
		p.err = p.nanRoam(ev)
	case EvRxOutcome:
		if math.IsNaN(ev.SinrDB) {
			p.err = fmt.Errorf("t=%v: frame from node %d to node %d judged at a NaN SINR", ev.TimeUs, ev.Node, ev.Peer)
		}
	}
}

// nanRead checks the gains medium.start reads for frame a, which its
// medium's active list now holds: the sender's power at its receiver,
// the sender's row and column over the medium's nodes (carrier sense,
// NAV decode, the OBSS-PD window from the sender's seat), and both
// interference crossings with every other frame on the medium, each
// read from a row of a's own endpoints.
func (p *csInvariantProbe) nanRead(ev Event, a liveFrame) error {
	tx, rx := a.tr.tx, a.tr.rx
	nan := func(from, to *Node) error {
		if math.IsNaN(from.gain[to.gi]) {
			return fmt.Errorf("t=%v: frame from node %d to node %d reads a NaN gain %d→%d",
				ev.TimeUs, tx.id, rx.id, from.id, to.id)
		}
		return nil
	}
	if err := nan(tx, rx); err != nil {
		return err
	}
	for _, nd := range hoodNodes(a.m, a.m.entries) {
		if nd == tx {
			continue
		}
		if err := cmp.Or(nan(tx, nd), nan(nd, tx)); err != nil {
			return err
		}
	}
	for _, b := range a.m.active {
		if b == a.tr {
			continue
		}
		if err := cmp.Or(nan(tx, b.rx), nan(rx, b.tx)); err != nil {
			return err
		}
	}
	return nil
}

// nanRoam checks the row of a station that has just reassociated: the
// gains its carrier-sense re-baseline read from every frame on its
// medium's air, and the cells refreshRow must have brought up to date,
// to every node of the medium and to every receiver that roamed off it
// while a frame on its air is still addressed to it.
func (p *csInvariantProbe) nanRoam(ev Event) error {
	st := p.n.nodes[ev.Node]
	m := st.med
	nan := func(from, to *Node) error {
		if math.IsNaN(from.gain[to.gi]) {
			return fmt.Errorf("t=%v: node %d reassociated to node %d with a NaN gain %d→%d",
				ev.TimeUs, st.id, ev.Peer, from.id, to.id)
		}
		return nil
	}
	for _, a := range m.active {
		if err := cmp.Or(nan(a.tx, st), nan(st, a.rx)); err != nil {
			return err
		}
	}
	for _, o := range hoodNodes(m, m.entries) {
		if o == st {
			continue
		}
		if err := nan(st, o); err != nil {
			return err
		}
	}
	return nil
}

func (p *csInvariantProbe) checkDomains(ev Event, a liveFrame) error {
	if p.dom == nil {
		p.dom = gainDomainOf(p.n)
	}
	tx, rx := a.tr.tx, a.tr.rx
	if p.dom[tx.id] != p.dom[rx.id] {
		return fmt.Errorf("t=%v: frame from node %d (gain domain %d) to node %d (gain domain %d)",
			ev.TimeUs, tx.id, p.dom[tx.id], rx.id, p.dom[rx.id])
	}
	for _, b := range p.live {
		if b.m == a.m && p.dom[b.tr.tx.id] != p.dom[tx.id] {
			return fmt.Errorf("t=%v: frame from node %d (gain domain %d) shares a medium with one from node %d (gain domain %d)",
				ev.TimeUs, tx.id, p.dom[tx.id], b.tr.tx.id, p.dom[b.tr.tx.id])
		}
	}
	return nil
}

func (p *csInvariantProbe) check(ev Event) error {
	p.checks++
	n := p.n
	active := 0
	for _, m := range n.media {
		active += len(m.active)
	}
	if active != len(p.live)-1 {
		return fmt.Errorf("t=%v: %d frames on the air, want %d tracked minus the finishing one",
			ev.TimeUs, active, len(p.live))
	}
	busy := make([]int, len(n.nodes))
	for _, lf := range p.live {
		for i, nd := range lf.tr.sensed {
			busy[nd.id]++
			if i > 0 && lf.tr.sensed[i-1].ord >= nd.ord {
				return fmt.Errorf("t=%v: frame from node %d senses node %d (ord %d) after node %d (ord %d)",
					ev.TimeUs, lf.tr.tx.id, nd.id, nd.ord, lf.tr.sensed[i-1].id, lf.tr.sensed[i-1].ord)
			}
		}
		for _, nd := range lf.tr.latent {
			if nd.csTracked {
				return fmt.Errorf("t=%v: frame from node %d holds a latent verdict for tracked node %d",
					ev.TimeUs, lf.tr.tx.id, nd.id)
			}
		}
	}
	for _, nd := range n.nodes {
		if nd.busyCount != busy[nd.id] {
			return fmt.Errorf("t=%v: node %d busyCount %d, but %d frames on the air list it as sensing",
				ev.TimeUs, nd.id, nd.busyCount, busy[nd.id])
		}
	}
	if n.cfg.RoamIntervalUs > 0 {
		return nil
	}
	for _, a := range p.live {
		if a.tr.done {
			continue
		}
		want := 0.0
		for _, b := range p.live {
			if b.tr != a.tr && b.m == a.m && b.tr.tx != a.tr.rx {
				want += n.rxPowerMw(b.tr.tx, a.tr.rx) * overlapFrac(b.tr, a.tr, a.m.bonded) * b.tr.scaleMw
			}
		}
		// Relative to the largest sum the frame has held: removing terms
		// leaves float residue on the scale of what was added, not of
		// what remains.
		if got := a.tr.curIntfMw; math.Abs(got-want) > 1e-9*max(want, a.tr.maxIntfMw) {
			return fmt.Errorf("t=%v: frame from node %d carries %v mW of interference, recomputed %v mW",
				ev.TimeUs, a.tr.tx.id, got, want)
		}
	}
	return nil
}

// TestCarrierSenseInvariants: csInvariantProbe rides every input's
// observed run on a single-engine plan, finds no fault and checks at
// least one frame end.
func TestCarrierSenseInvariants(t *testing.T) {
	eachReport(t, invariantCheck)
}

// TestPacketConservation: no packet is created or lost outside the
// books, on every input's observed run (unconserved).
func TestPacketConservation(t *testing.T) {
	eachReport(t, conservationCheck)
}

// unconserved checks the packet books of n after the run that returned
// r. For every flow, the arrivals must equal its deliveries, queue
// drops and retry drops plus the packets still held at the horizon —
// queued at any hop, or out of the queue in an A-MPDU burst on the air
// (launch takes a burst's MPDUs out; a lone MPDU stays at the head of
// its queue while it airs). It describes the first flow whose books do
// not balance ("" when all do).
func unconserved(n *Network, r Result) string {
	held := make(map[*Flow]int)
	for _, nd := range n.nodes {
		for ac := range nd.acq {
			for _, p := range nd.acq[ac].queue {
				held[p.flow]++
			}
		}
		if nd.curPkt != nil && nd.ex.ampdu {
			for _, p := range nd.ex.mpdus {
				held[p.flow]++
			}
		}
	}
	for i, f := range n.flows {
		s := r.Flows[i]
		if out := s.Delivered + s.QueueDrops + s.RetryDrops + held[f]; s.Arrivals != out {
			return fmt.Sprintf("flow %s: %d arrivals, but %d delivered + %d queue drops + %d retry drops + %d held at the horizon = %d",
				s.Label, s.Arrivals, s.Delivered, s.QueueDrops, s.RetryDrops, held[f], out)
		}
	}
	return ""
}

// crossingProbe counts the events it sees, the frame starts among
// them and, at each start, the frames already on the air of the
// sender's medium: the new frame is the last entry of that medium's
// active list, so the start crossed every other entry.
type crossingProbe struct {
	n                         *Network
	events, starts, crossings int
}

func (p *crossingProbe) OnEvent(ev Event) {
	p.events++
	if ev.Kind == EvTxStart {
		p.starts++
		p.crossings += len(p.n.nodes[ev.Node].med.active) - 1
	}
}

// TestCrossingsCounter pins Result.FrameStarts and Result.Crossings
// against the crossingProbe each engine of every input's observed run
// carries (AttachShardProbes keeps the plan), so the sharded presets
// check the per-shard sums; at least one input must run sharded.
func TestCrossingsCounter(t *testing.T) {
	reps, all := eachReport(t, crossingCheck)
	if all && !slices.ContainsFunc(reps, func(r diffReport) bool { return r.sharded }) {
		t.Fatal("no input ran on more than one shard")
	}
}
