package netsim

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
)

// The closed-loop extension surface. Every built-in generator is open
// loop: arrivals are drawn from a clock process that never hears what
// the MAC did with earlier packets. A transport protocol is the
// opposite — it injects exactly as fast as the network acknowledges —
// so layered packages (internal/netsim/transport) need two things from
// the flow: a way to put packets into the MAC on demand, and a report
// of every injected packet's final fate. Both live here.
//
// The contract is built around determinism:
//
//   - Fate callbacks fire synchronously from the MAC completion paths
//     (complete, applyBlockAck, the queue-drop branch of enqueue, the
//     retry-limit branch of exchangeFailed), on the flow's shard
//     goroutine. Shard planning co-locates a flow's endpoints, so every
//     callback for one flow runs on one engine in event order.
//   - Timers a Control needs (RTO, pacing) ride the flow's shard engine
//     via Flow.Schedule — the engine clock, never wall time — so a
//     closed-loop run is bit-for-bit reproducible for a fixed seed and
//     shard count, independent of worker count.
//   - A flow without a Control pays one nil-check per fate site and
//     nothing else: attaching no Control leaves every existing run
//     bit-identical (the compat goldens and the idle-control
//     equivalence test pin this).

// PacketFate is the final outcome of one packet, as reported to a
// flow's Control.
type PacketFate uint8

const (
	// FateDelivered: the packet completed its final MAC hop. For a
	// via-AP relay this is the second hop — fates are end to end.
	FateDelivered PacketFate = iota
	// FateQueueDrop: a full transmit queue dropped the packet (at the
	// source, or at the relay AP's queue for the second hop).
	FateQueueDrop
	// FateRetryDrop: the MAC abandoned the packet past the retry limit.
	FateRetryDrop
)

// String names the fate ("delivered", "queue_drop", "retry_drop").
func (f PacketFate) String() string {
	switch f {
	case FateQueueDrop:
		return "queue_drop"
	case FateRetryDrop:
		return "retry_drop"
	}
	return "delivered"
}

// Control is a closed-loop traffic source attached to one Flow. The
// netsim core calls it at two points; everything else the controller
// does rides Flow.Inject and Flow.Schedule.
//
// Reentrancy contract: PacketFate is called synchronously from inside
// the MAC. Injecting more traffic from a FateDelivered callback is safe
// (a delivery just freed queue room, exactly where a saturated refill
// injects). A drop fate MUST NOT Inject synchronously — a queue-drop
// fate can fire from inside the very Inject that overflowed the queue,
// and re-injecting at the same instant would loop forever; schedule the
// reaction via Flow.Schedule instead.
type Control interface {
	// Start is called once, from Flow.start during Prepare, on the
	// flow's shard at virtual time zero. This is where the controller
	// arms its first injections and timers; the engine clock is live.
	Start()

	// PacketFate reports one packet's final outcome. bytes is the
	// packet's payload; elapsedUs is the time since its injection —
	// the end-to-end delay for FateDelivered, the time spent queued
	// before the MAC gave up for the drop fates.
	PacketFate(fate PacketFate, bytes int, elapsedUs float64)
}

// Pull is the closed-loop placeholder generator: it schedules no
// arrivals of its own — the Flow's attached Control injects packets via
// Flow.Inject when its window allows. SegmentBytes is the nominal
// payload size, used only for labeling and validation; each Inject
// names its own size.
type Pull struct{ SegmentBytes int }

func (p Pull) Label() string                  { return "pull" }
func (p Pull) Bytes() int                     { return p.SegmentBytes }
func (p Pull) isSaturated() bool              { return false }
func (p Pull) firstGapUs(*rng.Source) float64 { return math.Inf(1) }
func (p Pull) nextGapUs(*rng.Source) float64  { return math.Inf(1) }
func (p Pull) validate() {
	checkPositive("Pull", "SegmentBytes", float64(p.SegmentBytes))
}

// SetControl attaches a closed-loop controller (or fate observer — a
// Control on a generator-driven flow sees every generated packet's
// fate without injecting anything). Call before Prepare/Run.
func (f *Flow) SetControl(c Control) {
	if f.net.prepared {
		panic("netsim: SetControl must be called before Prepare")
	}
	f.control = c
}

// Inject enqueues one packet of the given size at the flow's current
// injection node, exactly as a generator arrival would. It returns
// false when the transmit queue was full — in which case the
// FateQueueDrop callback has already fired, synchronously, before
// Inject returned. Valid only once the network is prepared (from
// Control.Start onward).
func (f *Flow) Inject(bytes int) bool {
	if !f.net.prepared {
		panic("netsim: Flow.Inject before Prepare (inject from Control.Start or later)")
	}
	if bytes <= 0 {
		panic(fmt.Sprintf("netsim: Flow.Inject bytes must be positive, got %d", bytes))
	}
	f.arrivals++
	return f.src.enqueue(f.src.sh.newPacket(f, bytes))
}

// Schedule runs fn after delayUs of virtual time on the flow's shard
// engine — the clock every fate callback for this flow also rides, so
// controller timers and MAC feedback stay totally ordered. The
// returned EventRef cancels the timer.
func (f *Flow) Schedule(delayUs float64, fn func()) sim.EventRef {
	return f.src.sh.eng.Schedule(delayUs, fn)
}

// NowUs is the current virtual time on the flow's shard engine.
func (f *Flow) NowUs() float64 { return f.src.sh.eng.Now() }

// fate reports a packet's final outcome to the flow's controller — one
// nil-check when no Control is attached — and releases the packet to
// the shard's pool: nothing may touch p afterwards.
func (f *Flow) fate(kind PacketFate, p *packet, nowUs float64) {
	if f.control != nil {
		f.control.PacketFate(kind, p.bytes, nowUs-p.arrivalUs)
	}
	f.src.sh.freePacket(p)
}
