package netsim

import "repro/internal/linkmodel"

// Per-frame object recycling. Every channel access used to heap-
// allocate its packet, Txop, exchange and transmissions plus the
// closures that scheduled their continuations — about ten objects per
// attempt on a dense floor. The steady-state frame loop now allocates
// nothing:
//
//   - Txop and exchange are one value per node (Node.heldTxop,
//     Node.ex): a node holds at most one transmit opportunity and
//     builds its next exchange only after the previous one is over, so
//     the values are simply overwritten; the exchange keeps its mpdus
//     backing array.
//   - transmission and packet records come from the shard's framePool,
//     a free list in the style of the sim engine's event records.
//     Pools are per shard and lock-free (a shard's goroutine is the
//     only one touching them), start empty, and grow only during Run,
//     to the workload's live set.
//   - Event continuations are method values bound once, on first use,
//     and cached on the node, queue or flow that owns them; the
//     in-flight frame they act on is Node.tr rather than a captured
//     variable.
//
// Release points. A packet returns at its final fate (Flow.fate:
// delivered on its last hop, retry drop, queue drop); a relayed packet
// keeps its record across the AP hand-off. A transmission returns when
// nothing can read it again: a data frame after complete judged it, a
// CTS when its airtime ends, an RTS when its sender's NAV and retry
// bookkeeping is done — on the failure path after fail, on success
// when the responder's sendCts has read it, a SIFS after the RTS left
// the air.
//
// Weak references. Under mobility a frame's contrib list points at the
// other frames it crossed interference into. Those may finish, be
// released and be recycled for an unrelated frame before the list is
// unwound, so each contribution carries the generation its target had
// when it was taken; release bumps the generation, and finish skips a
// contribution whose target has moved on.

// framePool is one shard's free lists of transmission and packet
// records.
type framePool struct {
	txFree  []*transmission
	pktFree []*packet
	stats   FramePoolStats
}

// FramePoolStats counts how a shard's frame pools (one per interaction
// group it ran) served a run, in the shape of sim.Stats' event-record
// counters: Hits are requests served by recycling a released record,
// Misses the ones that had to allocate. Misses stop growing once a pool
// reaches the workload's live set, so TxMisses + PacketMisses is the
// run's count of per-frame objects allocated.
type FramePoolStats struct {
	TxHits, TxMisses         uint64
	PacketHits, PacketMisses uint64
}

// add sums o into s.
func (s *FramePoolStats) add(o FramePoolStats) {
	s.TxHits += o.TxHits
	s.TxMisses += o.TxMisses
	s.PacketHits += o.PacketHits
	s.PacketMisses += o.PacketMisses
}

// poisonFrames, set only by tests, quarantines released records
// instead of recycling them: a released transmission loses its node,
// packet and exchange pointers and a released packet its flow, and
// neither is handed out again. Any read of a record after its release
// then dereferences nil (or, for a contribution, meets a bumped
// generation), and a second release panics, so a run that completes
// with the same results proves no release point is early or doubled.
var poisonFrames bool

// newTx hands out a transmission record initialized for one frame.
// The contrib, navAdopters and latent slices keep their backing arrays
// across recycles; gen is the only state that survives.
func (sh *shard) newTx(kind FrameKind, tx, rx *Node, pkt *packet, ex *exchange,
	mode linkmodel.Mode, navUntilUs float64) *transmission {
	fp := &sh.frames
	var tr *transmission
	if n := len(fp.txFree); n > 0 {
		tr = fp.txFree[n-1]
		fp.txFree = fp.txFree[:n-1]
		fp.stats.TxHits++
	} else {
		tr = &transmission{}
		fp.stats.TxMisses++
	}
	*tr = transmission{kind: kind, tx: tx, rx: rx, pkt: pkt, ex: ex, mode: mode,
		navUntilUs: navUntilUs, startUs: sh.eng.Now(), gen: tr.gen,
		contrib: tr.contrib[:0], navAdopters: tr.navAdopters[:0], latent: tr.latent[:0]}
	return tr
}

// freeTx releases a transmission nothing will read again. The
// generation bump is what invalidates contributions still pointing at
// it.
func (sh *shard) freeTx(tr *transmission) {
	tr.gen++
	if poisonFrames {
		if tr.tx == nil {
			panic("netsim: transmission released twice")
		}
		tr.tx, tr.rx, tr.pkt, tr.ex = nil, nil, nil, nil
		return
	}
	sh.frames.txFree = append(sh.frames.txFree, tr)
}

// newPacket hands out a packet record for one arrival of flow f.
func (sh *shard) newPacket(f *Flow, bytes int) *packet {
	fp := &sh.frames
	var p *packet
	if n := len(fp.pktFree); n > 0 {
		p = fp.pktFree[n-1]
		fp.pktFree = fp.pktFree[:n-1]
		fp.stats.PacketHits++
	} else {
		p = &packet{}
		fp.stats.PacketMisses++
	}
	*p = packet{flow: f, bytes: bytes, arrivalUs: sh.eng.Now(), ac: f.ac}
	return p
}

// freePacket releases a packet that met its final fate.
func (sh *shard) freePacket(p *packet) {
	if poisonFrames {
		if p.flow == nil {
			panic("netsim: packet released twice")
		}
		p.flow = nil
		return
	}
	sh.frames.pktFree = append(sh.frames.pktFree, p)
}
