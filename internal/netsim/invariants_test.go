package netsim

import (
	"cmp"
	"fmt"
	"math"
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
// NaN SINR a frame is judged at: under Config.poisonSkippedGains the
// roam tick writes NaN into every cell it skips (Network.readable), so
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
	for _, nd := range a.m.nodes {
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
	for _, o := range m.nodes {
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

// TestCarrierSenseInvariants runs the invariant probe over every
// equivalence row and seed.
func TestCarrierSenseInvariants(t *testing.T) {
	for _, sc := range equivScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= equivSeeds; seed++ {
				n := sc.build(DefaultConfig())(seed)
				p := &csInvariantProbe{n: n}
				n.AttachProbe(p)
				n.Run(sc.durationUs)
				if p.err != nil {
					t.Errorf("seed %d: %v", seed, p.err)
				} else if p.checks == 0 {
					t.Errorf("seed %d: no frame ended", seed)
				}
			}
		})
	}
}

// TestPacketConservation: no packet is created or lost outside the
// books. For every flow of every equivalence row and seed and every
// compat preset, the arrivals the Result reports equal its deliveries,
// queue drops and retry drops plus the packets still held at the
// horizon — queued at any hop, or out of the queue in an A-MPDU burst
// on the air (launch takes a burst's MPDUs out; a lone MPDU stays at
// the head of its queue while it airs).
func TestPacketConservation(t *testing.T) {
	for _, rw := range everyPreset() {
		n := rw.build()
		r := n.Run(rw.durationUs)
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
				t.Errorf("%s: flow %s: %d arrivals, but %d delivered + %d queue drops + %d retry drops + %d held at the horizon = %d",
					rw.name, s.Label, s.Arrivals, s.Delivered, s.QueueDrops, s.RetryDrops, held[f], out)
			}
		}
	}
}

// everyPreset lists each equivalence row at each seed, then each compat
// preset, as a network builder with its run length.
func everyPreset() []compatRow {
	var rows []compatRow
	for _, sc := range equivScenarios() {
		for seed := int64(1); seed <= equivSeeds; seed++ {
			rows = append(rows, compatRow{fmt.Sprintf("%s/seed%d", sc.name, seed), sc.durationUs, 0,
				func() *Network { return sc.build(DefaultConfig())(seed) }})
		}
	}
	return append(rows, compatScenarios()...)
}

// crossingProbe counts frame starts and, at each, the frames already
// on the air of the sender's medium: the new frame is the last entry of
// that medium's active list, so the start crossed every other entry.
type crossingProbe struct {
	n                 *Network
	starts, crossings int
}

func (p *crossingProbe) OnEvent(ev Event) {
	if ev.Kind == EvTxStart {
		p.starts++
		p.crossings += len(p.n.nodes[ev.Node].med.active) - 1
	}
}

// TestCrossingsCounter pins Result.FrameStarts and Result.Crossings
// against crossingProbe on every equivalence row and seed and every
// compat preset. Each shard gets its own probe (AttachShardProbes
// keeps the plan), so the sharded presets check the per-shard sums.
func TestCrossingsCounter(t *testing.T) {
	sharded := 0
	for _, rw := range everyPreset() {
		n := rw.build()
		var probes []*crossingProbe
		n.AttachShardProbes(func(int) Probe {
			p := &crossingProbe{n: n}
			probes = append(probes, p)
			return p
		})
		r := n.Run(rw.durationUs)
		if r.Shards > 1 {
			sharded++
		}
		var starts, crossings int
		for _, p := range probes {
			starts += p.starts
			crossings += p.crossings
		}
		if r.FrameStarts == 0 {
			t.Errorf("%s: no frame started", rw.name)
		}
		if r.FrameStarts != starts || r.Crossings != crossings {
			t.Errorf("%s: Result counts %d frame starts crossing %d frames on the air, the probe %d crossing %d",
				rw.name, r.FrameStarts, r.Crossings, starts, crossings)
		}
	}
	if sharded == 0 {
		t.Fatal("no preset ran on more than one shard")
	}
}
