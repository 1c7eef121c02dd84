// Package trace records the typed event stream a netsim.Probe exposes:
// a pooled ring-buffer Tracer with event-kind and time-window filters,
// JSONL and compact binary serializers for the captured events, a
// fan-out probe for stacking consumers, and an ASCII airtime-timeline
// renderer for short runs. Everything here is a pure consumer of
// netsim.Event values — attaching a Tracer never perturbs the
// simulation's event stream.
package trace

import "repro/internal/netsim"

// Option configures a Tracer at construction.
type Option func(*Tracer)

// WithCapacity bounds the ring buffer to the newest n events (older
// ones are overwritten and counted in Dropped). The default is 1 << 16.
func WithCapacity(n int) Option {
	return func(t *Tracer) {
		if n > 0 {
			t.capacity = n
		}
	}
}

// WithKinds restricts capture to the given event kinds. No kinds means
// capture everything.
func WithKinds(kinds ...netsim.EventKind) Option {
	return func(t *Tracer) {
		for _, k := range kinds {
			if int(k) < len(t.kindOn) {
				t.kindOn[k] = true
			}
		}
		t.filtered = true
	}
}

// WithWindow restricts capture to events with startUs <= TimeUs < endUs.
func WithWindow(startUs, endUs float64) Option {
	return func(t *Tracer) {
		t.startUs, t.endUs = startUs, endUs
		t.windowed = true
	}
}

// Tracer is a bounded in-memory recorder implementing netsim.Probe: a
// preallocated ring buffer that keeps the newest events passing its
// filters. Recording an event is a filter check plus a struct copy into
// the ring — no allocation once the ring is grown — so a Tracer can ride
// the hot loop. Not safe for concurrent use; attach one Tracer per
// Network (the ScenarioRunner builds one Network per job). On a
// sharded plan the Tracer sees the interaction groups one after
// another (Network.AttachProbe), so once the ring wraps it holds the
// tail of the last groups to run, not the last moments of the run.
type Tracer struct {
	capacity int
	ring     []netsim.Event
	next     int // ring slot the next event lands in
	wrapped  bool

	kindOn   [netsim.NumEventKinds]bool
	filtered bool
	windowed bool
	startUs  float64
	endUs    float64

	total   uint64 // events that passed the filters
	dropped uint64 // of those, overwritten by newer ones
}

// New builds a Tracer; see WithCapacity, WithKinds, WithWindow.
func New(opts ...Option) *Tracer {
	t := &Tracer{capacity: 1 << 16}
	for _, o := range opts {
		o(t)
	}
	return t
}

// OnEvent implements netsim.Probe.
func (t *Tracer) OnEvent(ev netsim.Event) {
	if t.filtered && !t.kindOn[ev.Kind] {
		return
	}
	if t.windowed && (ev.TimeUs < t.startUs || ev.TimeUs >= t.endUs) {
		return
	}
	t.total++
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, ev)
		t.next = len(t.ring) % t.capacity
		return
	}
	t.ring[t.next] = ev
	t.next = (t.next + 1) % t.capacity
	t.wrapped = true
	t.dropped++
}

// Events returns the captured events oldest-first. The slice is freshly
// built when the ring has wrapped; otherwise it aliases the ring, so
// callers that keep it across a Reset should copy.
func (t *Tracer) Events() []netsim.Event {
	if !t.wrapped {
		return t.ring
	}
	out := make([]netsim.Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Total counts the events that passed the filters, retained or not.
func (t *Tracer) Total() uint64 { return t.total }

// Dropped counts filtered-in events the ring overwrote.
func (t *Tracer) Dropped() uint64 { return t.dropped }

// Reset empties the ring and zeroes the counters, keeping capacity and
// filters (and the ring's backing array) for reuse.
func (t *Tracer) Reset() {
	t.ring = t.ring[:0]
	t.next = 0
	t.wrapped = false
	t.total, t.dropped = 0, 0
}

// multi fans events out to several probes in order.
type multi []netsim.Probe

func (m multi) OnEvent(ev netsim.Event) {
	for _, p := range m {
		p.OnEvent(ev)
	}
}

// Multi combines probes into one that delivers every event to each of
// them in argument order — e.g. a Tracer for history plus a live
// aggregator.
func Multi(probes ...netsim.Probe) netsim.Probe { return multi(probes) }
