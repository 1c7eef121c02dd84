package netsim

// The observability probe layer. A Probe attached to a Network receives
// one typed, timestamped Event from every instrumented point in the
// MAC/medium hot paths: frames entering and leaving the air, SINR
// verdicts, backoff freezes and resumes, NAV raises and expiries,
// virtual collisions, TXOP opens and closes, Block-ACK bitmaps, queue
// arrivals and drops, and roams. The design contract has two halves:
//
//   - Zero overhead when off. Every emission site is guarded by a plain
//     `if n.probe != nil` on a direct struct field — one predictable
//     branch, no Event construction, no function call, no allocation —
//     so a probe-less run pays nothing the E27 hot loop can measure
//     (the CI benchmark gate holds the probe-off floor within 2% of the
//     committed baseline, with the alloc columns compared strictly).
//
//   - Pure observation when on. Probes are handed values already
//     computed (or recomputed read-only); emission never draws from the
//     Network's rng.Source, never schedules or cancels engine events,
//     and never touches MAC state. A traced run is therefore
//     bit-identical to an untraced one — the equivalence suite pins
//     this — which is what makes tracing usable for debugging
//     divergences: attaching the debugger cannot move the bug.
//
// Implementations that want history should bound their memory (see
// trace.Tracer's pooled ring buffer); OnEvent is called from the heart
// of the event loop and must not block.

// Probe receives typed events from the simulation hot paths. OnEvent is
// called synchronously on the simulation goroutine; implementations
// must be fast, must not block, and must not call back into the
// Network.
type Probe interface {
	OnEvent(ev Event)
}

// AttachProbe points the network's event stream at p (nil detaches).
// Attach before Prepare/Run to see the initial queue fills; on a
// single engine attaching mid-run is allowed and takes effect at the
// next event, while on a sharded plan p must be attached before Run.
// The probe does not change the plan: Run drives every partition on
// one goroutine while a plain probe is attached, so p is never called
// concurrently and sees the interaction groups one after another, each
// in time order from the start of the run. The result is the unprobed
// run's. To observe the partitions concurrently, use AttachShardProbes.
func (n *Network) AttachProbe(p Probe) {
	n.probe = p
	for _, sh := range n.shards {
		sh.probe = p
	}
}

// AttachShardProbes installs a per-partition probe factory: at
// Prepare, partition i's event stream goes to f(i), called once per
// partition in index order. Each probe sees only its own partition's
// events, on that partition's goroutine — implementations need no
// locking as long as the probes don't share state. A partition runs
// its interaction groups one after another, so its probe sees each
// group's events in time order, then the next group's from the start
// of the run. Unlike AttachProbe, the partitions still run
// concurrently. Call before Prepare.
func (n *Network) AttachShardProbes(f func(shard int) Probe) {
	if n.prepared {
		panic("netsim: AttachShardProbes must be called before Prepare")
	}
	n.probeFactory = f
}

// EventKind discriminates what an Event describes.
type EventKind uint8

const (
	// EvTxStart: a frame entered the air. Node=transmitter,
	// Peer=addressee, Frame/AC/Bytes/Mpdus/Mode describe it; for RTS and
	// CTS, Value is the NAV-until time the duration field advertises.
	EvTxStart EventKind = iota
	// EvTxEnd: the frame left the air. Node=transmitter, Peer=addressee,
	// Frame as in EvTxStart.
	EvTxEnd
	// EvRxOutcome: a judged frame's verdict. Node=transmitter,
	// Peer=receiver, SinrDB the worst-overlap SINR it was judged at. For
	// a single MPDU or an RTS, Ok is the Bernoulli draw; for an A-MPDU,
	// Bitmap bit i holds MPDU i's verdict (Mpdus of them; Ok = any
	// delivered).
	EvRxOutcome
	// EvBackoffFreeze: a category's countdown banked its elapsed slots
	// and cancelled (carrier sense, NAV, or the node's own transmission).
	// Node/AC name the queue, Value is the remaining backoff slots.
	EvBackoffFreeze
	// EvBackoffResume: a countdown (re)armed. Node/AC name the queue,
	// Value is the remaining backoff slots it will count down.
	EvBackoffResume
	// EvNavSet: the node's NAV moved. Value is the new until-time —
	// raised by a decoded RTS/CTS duration field, or shrunk by the
	// standard's NAV-reset rule when an RTS exchange died.
	EvNavSet
	// EvNavExpire: the node's NAV reservation lapsed and contention may
	// resume.
	EvNavExpire
	// EvVirtualCollision: the node's category AC lost the internal EDCA
	// arbitration to a higher sibling expiring in the same slot.
	EvVirtualCollision
	// EvTxopOpen: a queue won contention and obtained a transmit
	// opportunity. Node/AC name the winner, Value is the category's TXOP
	// limit in µs (0 = single exchange).
	EvTxopOpen
	// EvTxopClose: the node released its transmit opportunity. Value is
	// the time it was held, in µs.
	EvTxopClose
	// EvBlockAck: a Block-ACK resolved an A-MPDU burst. Node=burst
	// sender, Peer=receiver, Bitmap bit i set = MPDU i acknowledged
	// (Mpdus of them), Ok = any acknowledged (a no-Ok burst drew no
	// Block-ACK at all), Value = MPDUs sent back for retransmission.
	EvBlockAck
	// EvEnqueue: a packet joined a transmit queue. Node/AC name the
	// queue, Bytes the payload, Value the queue depth after.
	EvEnqueue
	// EvQueueDrop: a full queue dropped an arrival. Node/AC name the
	// queue, Bytes the payload lost.
	EvQueueDrop
	// EvRoam: a station reassociated. Node=station, Peer=new AP's node
	// id, Value=old AP's node id.
	EvRoam
	// EvObssIgnore: OBSS-PD spatial reuse suppressed a carrier-sense
	// deferral — an inter-BSS (different-color) frame arrived above the
	// legacy CS threshold but below Config.ObssPdThresholdDBm, so the
	// listener stayed free to transmit. Node=the listener, Peer=the
	// ignored frame's transmitter, Frame/AC describe the frame, Value
	// the received power in dBm it was judged at.
	EvObssIgnore

	// NumEventKinds sizes kind-indexed tables (filters, histograms).
	NumEventKinds
)

var eventKindNames = [NumEventKinds]string{
	EvTxStart:          "tx_start",
	EvTxEnd:            "tx_end",
	EvRxOutcome:        "rx_outcome",
	EvBackoffFreeze:    "backoff_freeze",
	EvBackoffResume:    "backoff_resume",
	EvNavSet:           "nav_set",
	EvNavExpire:        "nav_expire",
	EvVirtualCollision: "virtual_collision",
	EvTxopOpen:         "txop_open",
	EvTxopClose:        "txop_close",
	EvBlockAck:         "block_ack",
	EvEnqueue:          "enqueue",
	EvQueueDrop:        "queue_drop",
	EvRoam:             "roam",
	EvObssIgnore:       "obss_ignore",
}

// String names the kind as it appears in JSONL traces ("tx_start", ...).
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// EventKindByName resolves a JSONL/CLI kind name back to its EventKind,
// reporting ok=false for names no kind carries.
func EventKindByName(name string) (EventKind, bool) {
	for k, n := range eventKindNames {
		if n == name {
			return EventKind(k), true
		}
	}
	return 0, false
}

// FrameKind is what a Tx/Rx event had on the air: data frames and RTSs
// are judged by SINR at the receiver; the CTS is a pure reservation
// announcement.
type FrameKind uint8

const (
	FrameData FrameKind = iota
	FrameRts
	FrameCts
)

// String names the frame kind ("data", "rts", "cts").
func (f FrameKind) String() string {
	switch f {
	case FrameRts:
		return "rts"
	case FrameCts:
		return "cts"
	}
	return "data"
}

// Event is one timestamped observation from the simulation hot path.
// The struct is passed by value — probes may retain copies freely — and
// deliberately flat (no pointers into live MAC state), so recording it
// is a memcpy and serializing it needs no graph walk. Field meaning is
// kind-specific; see the EventKind constants. Peer is -1 when the event
// has no counterpart node.
type Event struct {
	TimeUs float64   // virtual time the event fired
	Kind   EventKind // discriminator; see the Ev* constants
	Frame  FrameKind // Tx*/RxOutcome: what was on the air
	AC     AC        // access category, where the MAC knows one
	Node   int       // primary actor (transmitter, queue owner, roamer)
	Peer   int       // counterpart (receiver, new AP), -1 if none
	Bytes  int       // payload bytes (Tx/queue events)
	Mpdus  int       // MPDUs in the burst (aggregated exchanges)
	Ok     bool      // verdict (RxOutcome, BlockAck)
	SinrDB float64   // worst-overlap SINR the frame was judged at
	Value  float64   // kind-specific scalar; see the EventKind docs
	Bitmap uint64    // per-MPDU verdict bits (RxOutcome/BlockAck)
	Mode   string    // PHY mode name of the frame, "" when none applies
}

// ampduBitmap packs per-MPDU verdicts into Block-ACK bitmap bits
// (bit i = MPDU i delivered; bursts beyond 64 MPDUs truncate, as the
// standard's compressed bitmap would).
func ampduBitmap(ok []bool) uint64 {
	var bits uint64
	for i, o := range ok {
		if i >= 64 {
			break
		}
		if o {
			bits |= 1 << uint(i)
		}
	}
	return bits
}

// txEvent builds the EvTxStart/EvTxEnd view of a frame in flight.
// Callers guard with sh.probe != nil — constructing the Event is
// already probe-on work.
func (sh *shard) txEvent(kind EventKind, tr *transmission) Event {
	ev := Event{TimeUs: sh.eng.Now(), Kind: kind, Frame: tr.kind,
		AC: tr.pkt.ac, Node: tr.tx.id, Peer: tr.rx.id, Mode: tr.mode.Name}
	if tr.kind == FrameData && tr.ex != nil {
		ev.Bytes = tr.ex.totalBytes()
		ev.Mpdus = len(tr.ex.mpdus)
	}
	if tr.navUntilUs > 0 {
		ev.Value = tr.navUntilUs
	}
	return ev
}

// emit hands one event to the shard's probe, stamping the current
// virtual time. Cold emission sites call this for uniformity; the hot
// sites inline the nil-guard themselves so a probe-less run never
// constructs the Event. Callers on hot paths must still guard with
// sh.probe != nil before building ev.
func (sh *shard) emit(ev Event) {
	if sh.probe == nil {
		return
	}
	ev.TimeUs = sh.eng.Now()
	sh.probe.OnEvent(ev)
}
