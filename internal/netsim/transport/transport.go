// Package transport layers a TCP-like closed-loop sender over a netsim
// flow. A Conn attaches to a Pull flow as its netsim.Control: every
// injected segment's delivery or drop comes back through PacketFate,
// feeding a congestion window (slow start below ssthresh, additive
// increase above, multiplicative decrease on loss) and a
// retransmission-timeout clock derived from smoothed RTT samples the
// RFC 6298 way. The MAC's end-to-end delay IS the RTT here — the
// reverse path is the ACK the MAC already models — so the loop closes
// with no extra frames on the air.
//
// Everything rides the flow's shard engine: RTO timers and retry pumps
// are engine events, fates arrive in engine order, and the only
// randomness is the MAC's own. A closed-loop run is therefore exactly
// as deterministic as the open-loop simulator — bit-identical for a
// fixed seed and shard count, regardless of worker count.
package transport

import (
	"fmt"
	"math"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Config parameterizes one Conn. The zero value of any field takes the
// default noted on it.
type Config struct {
	// SegmentBytes is the sender's segment size — each Inject carries
	// at most this much. Default 1000.
	SegmentBytes int

	// InitCwnd / MaxCwnd bound the congestion window, in segments.
	// Defaults 2 and 64.
	InitCwnd int
	MaxCwnd  int

	// InitRTOUs is the retransmission timeout before the first RTT
	// sample; MinRTOUs/MaxRTOUs clamp it afterwards. Defaults 100 ms,
	// 20 ms, 1 s — scaled to WLAN RTTs rather than the RFC's 1 s floor,
	// so short simulations still exercise the timeout path.
	InitRTOUs float64
	MinRTOUs  float64
	MaxRTOUs  float64
}

// WithDefaults returns c with every zero field set to its default.
func (c Config) WithDefaults() Config {
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 1000
	}
	if c.InitCwnd == 0 {
		c.InitCwnd = 2
	}
	if c.MaxCwnd == 0 {
		c.MaxCwnd = 64
	}
	if c.InitRTOUs == 0 {
		c.InitRTOUs = 100e3
	}
	if c.MinRTOUs == 0 {
		c.MinRTOUs = 20e3
	}
	if c.MaxRTOUs == 0 {
		c.MaxRTOUs = 1e6
	}
	return c
}

// validate panics on a defaulted configuration no Conn can run with.
func (c Config) validate() {
	check := func(field string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			panic(fmt.Sprintf("transport: Config.%s must be positive and finite, got %v", field, v))
		}
	}
	check("SegmentBytes", float64(c.SegmentBytes))
	check("InitCwnd", float64(c.InitCwnd))
	check("MaxCwnd", float64(c.MaxCwnd))
	check("InitRTOUs", c.InitRTOUs)
	check("MinRTOUs", c.MinRTOUs)
	check("MaxRTOUs", c.MaxRTOUs)
	if c.MaxCwnd < c.InitCwnd {
		panic(fmt.Sprintf("transport: Config.MaxCwnd %d below InitCwnd %d", c.MaxCwnd, c.InitCwnd))
	}
	if c.MaxRTOUs < c.MinRTOUs {
		panic(fmt.Sprintf("transport: Config.MaxRTOUs %v below MinRTOUs %v", c.MaxRTOUs, c.MinRTOUs))
	}
}

// State is the congestion-control state machine alone — window, RTT
// estimator, timeout — with no I/O, so unit tests can drive it against
// hand-computed traces. Conn embeds one and feeds it fates.
type State struct {
	Cwnd     float64 // congestion window, segments
	Ssthresh float64 // slow-start threshold, segments
	MaxCwnd  float64

	SrttUs   float64 // smoothed RTT (RFC 6298)
	RttvarUs float64
	RTOUs    float64
	MinRTOUs float64
	MaxRTOUs float64

	// RecoveryUntilUs makes the multiplicative decrease once-per-RTT: a
	// burst of drops from one congested window halves the window once,
	// not once per segment.
	RecoveryUntilUs float64

	// Backoff counts consecutive timeouts (each doubles RTOUs); any ACK
	// resets it.
	Backoff int

	hasSample bool
}

// clampRTO bounds RTOUs to [MinRTOUs, MaxRTOUs].
func (s *State) clampRTO() {
	if s.RTOUs < s.MinRTOUs {
		s.RTOUs = s.MinRTOUs
	}
	if s.RTOUs > s.MaxRTOUs {
		s.RTOUs = s.MaxRTOUs
	}
}

// OnAck absorbs one delivered segment: fold the RTT sample into the
// smoothed estimator, recompute the timeout, and grow the window — one
// full segment per ACK in slow start, 1/cwnd above ssthresh.
func (s *State) OnAck(rttUs float64) {
	if !s.hasSample {
		s.SrttUs = rttUs
		s.RttvarUs = rttUs / 2
		s.hasSample = true
	} else {
		dev := s.SrttUs - rttUs
		if dev < 0 {
			dev = -dev
		}
		s.RttvarUs = 0.75*s.RttvarUs + 0.25*dev
		s.SrttUs = 0.875*s.SrttUs + 0.125*rttUs
	}
	s.RTOUs = s.SrttUs + 4*s.RttvarUs
	s.clampRTO()
	s.Backoff = 0
	if s.Cwnd < s.Ssthresh {
		s.Cwnd++
	} else {
		s.Cwnd += 1 / s.Cwnd
	}
	if s.Cwnd > s.MaxCwnd {
		s.Cwnd = s.MaxCwnd
	}
}

// OnLoss reacts to one dropped segment with the multiplicative
// decrease, at most once per RTT: losses landing inside the current
// recovery window are the same congestion event and change nothing. It
// reports whether the window moved.
func (s *State) OnLoss(nowUs float64) bool {
	if nowUs < s.RecoveryUntilUs {
		return false
	}
	s.Ssthresh = s.Cwnd / 2
	if s.Ssthresh < 2 {
		s.Ssthresh = 2
	}
	s.Cwnd = s.Ssthresh
	rtt := s.SrttUs
	if rtt <= 0 {
		rtt = s.RTOUs
	}
	s.RecoveryUntilUs = nowUs + rtt
	return true
}

// OnTimeout is the retransmission-timeout reaction: collapse to one
// segment, halve the threshold, and double the timeout (exponential
// backoff, clamped).
func (s *State) OnTimeout() {
	s.Ssthresh = s.Cwnd / 2
	if s.Ssthresh < 2 {
		s.Ssthresh = 2
	}
	s.Cwnd = 1
	s.Backoff++
	s.RTOUs *= 2
	s.clampRTO()
}

// transfer is one Send in flight: a byte count to push and the
// callback fired when the last byte is acknowledged.
type transfer struct {
	size, acked int
	done        func(nowUs float64)
}

// Stats is a Conn's cumulative transport-level accounting.
type Stats struct {
	BytesAcked int
	SegsSent   int // segments injected into the MAC (retransmits included)
	SegsLost   int // fates other than delivered
	RTOs       int // timeout firings
	CwndPeak   float64
}

// Conn is one closed-loop sender bound to a netsim flow. Create it
// with Attach before Prepare; drive it with Send from engine context
// (Start hooks, timers, transfer callbacks).
type Conn struct {
	State
	cfg  Config
	flow *netsim.Flow

	// OnStart, when set, runs once at virtual time zero (from the
	// flow's Control.Start) — the place an application arms its first
	// request or its start-delay timer.
	OnStart func()

	inflight int // segments in the MAC awaiting a fate
	pending  int // bytes accepted by Send and not currently in flight
	queue    []*transfer

	rtoEvent  sim.EventRef
	pumpArmed bool
	started   bool
	stats     Stats

	// onRTOFn and pumpFn are c.onRTO and c.pump, bound once at Attach
	// so arming a timer allocates nothing.
	onRTOFn, pumpFn func()
}

// Attach builds a Conn over the flow and registers it as the flow's
// Control. The flow should carry a netsim.Pull generator — the Conn is
// then the only packet source — but a generator-driven flow works too
// (the Conn paces its own segments alongside the generator's).
func Attach(f *netsim.Flow, cfg Config) *Conn {
	cfg = cfg.WithDefaults()
	cfg.validate()
	c := &Conn{cfg: cfg, flow: f}
	c.State = State{
		Cwnd:     float64(c.cfg.InitCwnd),
		Ssthresh: float64(c.cfg.MaxCwnd),
		MaxCwnd:  float64(c.cfg.MaxCwnd),
		RTOUs:    c.cfg.InitRTOUs,
		MinRTOUs: c.cfg.MinRTOUs,
		MaxRTOUs: c.cfg.MaxRTOUs,
	}
	c.onRTOFn, c.pumpFn = c.onRTO, c.pump
	f.SetControl(c)
	return c
}

// Schedule and NowUs expose the flow's engine clock — applications
// pace themselves on the same timeline their ACKs arrive on.
func (c *Conn) Schedule(delayUs float64, fn func()) sim.EventRef {
	return c.flow.Schedule(delayUs, fn)
}
func (c *Conn) NowUs() float64 { return c.flow.NowUs() }

// Stats snapshots the connection's cumulative counters.
func (c *Conn) Stats() Stats { return c.stats }

// Send queues bytes toward the flow's destination and fires done (may
// be nil) when the last byte is acknowledged, with the engine time of
// that ACK. Transfers complete in FIFO order — one Conn is one ordered
// byte stream, so a request/response app opens one Send per object.
func (c *Conn) Send(bytes int, done func(nowUs float64)) {
	if bytes <= 0 {
		panic(fmt.Sprintf("transport: Send bytes must be positive, got %d", bytes))
	}
	c.queue = append(c.queue, &transfer{size: bytes, done: done})
	c.pending += bytes
	if c.started {
		c.pump()
	}
}

// Start is the netsim.Control hook: the engine clock is live, so run
// the application's opening move and push any pre-queued transfers.
func (c *Conn) Start() {
	c.started = true
	if c.OnStart != nil {
		c.OnStart()
	}
	c.pump()
}

// PacketFate is the netsim.Control feedback path; see the reentrancy
// contract there. Deliveries grow the window and pump synchronously —
// a delivery means queue room just opened. Drops shrink the window and
// defer the re-injection to a scheduled pump: a queue-drop fate fires
// from inside the Inject that overflowed, where injecting again would
// spin forever at the same instant.
func (c *Conn) PacketFate(fate netsim.PacketFate, bytes int, elapsedUs float64) {
	c.inflight--
	if fate == netsim.FateDelivered {
		c.stats.BytesAcked += bytes
		c.OnAck(elapsedUs)
		if c.Cwnd > c.stats.CwndPeak {
			c.stats.CwndPeak = c.Cwnd
		}
		c.credit(bytes)
		c.pump()
		return
	}
	c.stats.SegsLost++
	c.pending += bytes // the lost bytes go out again
	c.OnLoss(c.flow.NowUs())
	c.schedulePump()
}

// credit acknowledges bytes against the FIFO of open transfers, firing
// completion callbacks as transfers finish. Callbacks may Send more —
// the request/response chain — which pumps from in here; pump is
// idempotent, so the caller pumping again afterwards is fine.
func (c *Conn) credit(bytes int) {
	now := c.flow.NowUs()
	for bytes > 0 && len(c.queue) > 0 {
		t := c.queue[0]
		take := t.size - t.acked
		if take > bytes {
			take = bytes
		}
		t.acked += take
		bytes -= take
		if t.acked < t.size {
			return
		}
		c.queue = c.queue[1:]
		if t.done != nil {
			t.done(now)
		}
	}
}

// pump injects segments while the window has room. An Inject that
// returns false overflowed the queue — its drop fate already undid the
// accounting and scheduled the retry — so hammering the full queue any
// further is pointless.
func (c *Conn) pump() {
	c.pumpArmed = false
	for c.pending > 0 && c.inflight < int(c.Cwnd) {
		seg := c.cfg.SegmentBytes
		if seg > c.pending {
			seg = c.pending
		}
		c.pending -= seg
		c.inflight++
		if !c.flow.Inject(seg) {
			return
		}
		c.stats.SegsSent++
	}
	c.armRTO()
}

// schedulePump arms one retry pump an RTT out (the timeout, before any
// sample) unless one is already pending.
func (c *Conn) schedulePump() {
	if c.pumpArmed {
		return
	}
	c.pumpArmed = true
	delay := c.SrttUs
	if delay <= 0 {
		delay = c.RTOUs
	}
	c.flow.Schedule(delay, c.pumpFn)
}

// armRTO resets the retransmission timer: live while segments are in
// flight, disarmed when the pipe drains.
func (c *Conn) armRTO() {
	c.rtoEvent.Cancel()
	c.rtoEvent = sim.EventRef{}
	if c.inflight > 0 {
		c.rtoEvent = c.flow.Schedule(c.RTOUs, c.onRTOFn)
	}
}

// onRTO fires when no fate arrived for a full timeout: the pipe is
// stalled somewhere in the MAC's queues, so collapse the window, back
// the timer off, and keep waiting — every injected segment still gets
// a fate eventually, which is what restarts the flow.
func (c *Conn) onRTO() {
	c.rtoEvent = sim.EventRef{}
	if c.inflight == 0 && c.pending == 0 {
		return
	}
	c.stats.RTOs++
	c.OnTimeout()
	c.armRTO()
	c.schedulePump()
}
