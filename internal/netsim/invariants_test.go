package netsim

import (
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
// The probe tracks F itself: at EvTxStart the new frame is the last
// entry of its sender's medium's active list, and at EvTxEnd the
// finishing frame is the tracked one already marked done.
type csInvariantProbe struct {
	n      *Network
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
		p.live = append(p.live, liveFrame{m.active[len(m.active)-1], m})
	case EvTxEnd:
		p.err = p.check(ev)
		for i, lf := range p.live {
			if lf.tr.done {
				p.live = append(p.live[:i], p.live[i+1:]...)
				break
			}
		}
	}
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
