// Package sim is a minimal discrete-event simulation core: a virtual
// clock and a priority queue of scheduled callbacks. The MAC power-save
// and traffic models run on it, and netsim's hot loop schedules and
// cancels events at frame rate, so the engine recycles event records
// through a free list instead of allocating one per Schedule, and keeps
// its queue as a 4-ary min-heap whose slots carry each event's (time,
// seq) key inline: a sift compares keys without loading an event
// record. Events fire in (time, seq) order, a strict total order, so
// the firing sequence does not depend on the heap's shape.
package sim

// event is one pooled scheduled-callback record. Records are owned by
// the engine: popped or cancelled events return to the free list and
// are reused by later Schedule/At calls, so the steady-state event loop
// allocates nothing. gen counts recycles; an EventRef captured at
// schedule time goes stale the moment the record is released, which is
// what makes a late Cancel on a fired (and possibly reused) event a
// no-op.
type event struct {
	fn  func()
	gen uint64
	// index is the event's slot in the owning engine's heap, or -1
	// once it has fired or been removed. Cancel uses it to take the
	// event out of the queue eagerly rather than leaving a dead entry
	// to be skipped at pop time — workloads that churn cancellations
	// (netsim's carrier-sense pauses) would otherwise grow the heap
	// with garbage.
	index int
	eng   *Engine
}

// EventRef is a handle to a scheduled callback: the record pointer plus
// the generation it was scheduled under. The zero value refers to
// nothing. Cancel and Scheduled compare generations, so a ref kept past
// the event's firing — or past an earlier Cancel — is inert even after
// the engine has recycled the record for an unrelated event.
type EventRef struct {
	ev  *event
	gen uint64
}

// Scheduled reports whether the referenced event is still queued to
// fire. False for the zero ref, after the event fires, and after any
// Cancel.
func (r EventRef) Scheduled() bool { return r.ev != nil && r.ev.gen == r.gen }

// Cancel prevents the event from firing and removes it from the queue,
// returning the record to the free list. Safe to call more than once,
// on the zero ref, and after the event has fired — a stale ref's
// generation no longer matches, so the record's current occupant (if
// any) is untouched.
func (r EventRef) Cancel() {
	if !r.Scheduled() {
		return
	}
	eng := r.ev.eng
	eng.stats.Cancelled++
	eng.remove(r.ev.index)
	eng.release(r.ev)
}

// Stats is a snapshot of the engine's lifetime introspection counters:
// how much work the event loop has done and how well the record pool is
// serving it. The counters are observational only — reading them never
// perturbs scheduling — and cost a handful of integer increments per
// event, so they are always on.
type Stats struct {
	Scheduled uint64 // events accepted by Schedule/At
	Fired     uint64 // events whose callback ran
	Cancelled uint64 // events removed by a live Cancel
	// HeapHighWater is the largest number of events that were ever
	// simultaneously queued — the working-set figure that sizes the
	// heap's backing array.
	HeapHighWater int
	// PoolHits counts Schedule/At calls served by recycling a record off
	// the free list; PoolMisses counts the ones that had to allocate. In
	// steady state misses stop growing: the pool has reached the
	// workload's live set.
	PoolHits, PoolMisses uint64
}

// PoolHitRate is the fraction of schedules served without allocating,
// in [0,1]. 0 for an unused engine.
func (s Stats) PoolHitRate() float64 {
	if total := s.PoolHits + s.PoolMisses; total > 0 {
		return float64(s.PoolHits) / float64(total)
	}
	return 0
}

// Engine is the simulation clock and event queue. The zero value is
// ready to use.
type Engine struct {
	now   float64
	queue []slot
	seq   int64
	free  []*event
	stats Stats
}

// Stats returns a snapshot of the engine's introspection counters.
func (e *Engine) Stats() Stats { return e.stats }

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn after delay (which must not be negative) and returns
// a handle for cancellation.
func (e *Engine) Schedule(delay float64, fn func()) EventRef {
	if delay < 0 {
		panic("sim: negative delay")
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute time t >= Now.
func (e *Engine) At(t float64, fn func()) EventRef {
	if t < e.now {
		panic("sim: scheduling in the past")
	}
	e.seq++
	ev := e.alloc()
	ev.fn = fn
	e.queue = append(e.queue, slot{t, e.seq, ev})
	e.up(len(e.queue) - 1)
	e.stats.Scheduled++
	if n := len(e.queue); n > e.stats.HeapHighWater {
		e.stats.HeapHighWater = n
	}
	return EventRef{ev: ev, gen: ev.gen}
}

// alloc takes a record off the free list, falling back to the allocator
// only while the pool is still growing to the workload's live set.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		e.stats.PoolHits++
		return ev
	}
	e.stats.PoolMisses++
	return &event{eng: e}
}

// release retires a popped or cancelled record to the free list. The
// generation bump is what invalidates every outstanding EventRef to it;
// the callback is dropped so the pool does not pin closures alive.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.fn = nil
	e.free = append(e.free, ev)
}

// Step fires the next event. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.now = e.queue[0].time
	ev := e.queue[0].ev
	e.remove(0)
	e.stats.Fired++
	fn := ev.fn
	// Release before running: refs to this event go stale now, and the
	// callback's own scheduling may immediately reuse the record.
	e.release(ev)
	fn()
	return true
}

// Run fires events until the queue empties or the clock passes until.
// Events scheduled exactly at until still fire.
func (e *Engine) Run(until float64) {
	for len(e.queue) > 0 && e.queue[0].time <= until {
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// Pending returns the number of live events in the queue. Cancelled
// events are removed eagerly, so this is just the queue length.
func (e *Engine) Pending() int { return len(e.queue) }

// slot is one heap entry: the event's key, copied inline so that a
// sift compares keys without loading the record, and the record
// itself.
type slot struct {
	time float64
	seq  int64
	ev   *event
}

// before orders slots by time, breaking ties by scheduling order so the
// simulation is deterministic.
func (s *slot) before(o *slot) bool {
	return s.time < o.time || s.time == o.time && s.seq < o.seq
}

// The queue is a 4-ary min-heap: the children of slot i are slots
// 4i+1 … 4i+4. Against a binary heap it halves the levels a sift walks,
// and a slot's four children share a cache line or two. Every move
// writes the moved event's index, which Cancel removes by.

// up sifts slot i toward the root.
func (e *Engine) up(i int) {
	q := e.queue
	s := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !s.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = i
		i = p
	}
	q[i] = s
	s.ev.index = i
}

// down sifts slot i toward the leaves and reports whether it moved.
func (e *Engine) down(i int) bool {
	q := e.queue
	n := len(q)
	s := q[i]
	i0 := i
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, n); j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&s) {
			break
		}
		q[i] = q[m]
		q[i].ev.index = i
		i = m
	}
	q[i] = s
	s.ev.index = i
	return i > i0
}

// remove takes slot i out of the queue: the last slot fills the hole
// and sifts whichever way its key points. The removed event's index
// becomes -1.
func (e *Engine) remove(i int) {
	q := e.queue
	n := len(q) - 1
	q[i].ev.index = -1
	if i != n {
		q[i] = q[n]
	}
	q[n] = slot{} // drop the record pointer from the spare capacity
	e.queue = q[:n]
	if i != n && !e.down(i) {
		e.up(i)
	}
}
