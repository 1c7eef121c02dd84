package sim

import (
	"testing"
)

func TestEventsFireInOrder(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("firing order %v", order)
	}
	if e.Now() != 10 {
		t.Errorf("clock = %v, want 10", e.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	var e Engine
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	if !ev.Scheduled() {
		t.Error("fresh event not Scheduled")
	}
	ev.Cancel()
	if ev.Scheduled() {
		t.Error("cancelled event still Scheduled")
	}
	e.Run(5)
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d", e.Pending())
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.Schedule(10, tick)
		}
	}
	e.Schedule(10, tick)
	e.Run(100)
	if count != 5 {
		t.Errorf("ticks = %d, want 5", count)
	}
	if e.Now() != 100 {
		t.Errorf("now = %v", e.Now())
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	var e Engine
	fired := false
	e.Schedule(50, func() { fired = true })
	e.Run(10)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if e.Now() != 10 {
		t.Errorf("now = %v, want 10", e.Now())
	}
	e.Run(100)
	if !fired {
		t.Error("event did not fire after extending horizon")
	}
}

func TestStepEmptyQueue(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	e.Schedule(5, func() {})
	e.Run(10)
	defer func() {
		if recover() == nil {
			t.Error("At in the past should panic")
		}
	}()
	e.At(3, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestRunBoundaryInclusive(t *testing.T) {
	var e Engine
	fired := false
	e.Schedule(10, func() { fired = true })
	e.Run(10)
	if !fired {
		t.Error("event scheduled exactly at until did not fire")
	}
}

func TestCancelAfterFireIsHarmless(t *testing.T) {
	var e Engine
	count := 0
	ev := e.Schedule(1, func() { count++ })
	e.Run(5)
	ev.Cancel() // already popped and fired; must be a no-op
	e.Run(10)
	if count != 1 {
		t.Errorf("event fired %d times", count)
	}
}

func TestCancelSameTimestampFromEarlierEvent(t *testing.T) {
	var e Engine
	fired := false
	var victim EventRef
	e.Schedule(5, func() { victim.Cancel() })
	victim = e.Schedule(5, func() { fired = true })
	e.Run(10)
	if fired {
		t.Error("event cancelled by a same-timestamp predecessor still fired")
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d", e.Pending())
	}
}

func TestCancelRemovesEagerly(t *testing.T) {
	// Cancel must take the event out of the heap immediately, not leave
	// a dead entry to be skipped later: Pending reflects the drop at
	// once, and double-Cancel stays a no-op.
	var e Engine
	evs := make([]EventRef, 100)
	for i := range evs {
		evs[i] = e.Schedule(float64(i+1), func() {})
	}
	for i := 0; i < 50; i++ {
		evs[2*i].Cancel()
		evs[2*i].Cancel() // idempotent
	}
	if e.Pending() != 50 {
		t.Errorf("pending = %d after cancelling half, want 50", e.Pending())
	}
	fired := 0
	for e.Step() {
		fired++
	}
	_ = fired
	if e.Pending() != 0 {
		t.Errorf("pending = %d after drain", e.Pending())
	}
}

func TestCancelInterleavedWithReschedule(t *testing.T) {
	// The netsim carrier-sense pattern: schedule, cancel, reschedule in
	// a tight loop. The queue must not accumulate dead events.
	var e Engine
	var ev EventRef
	for i := 0; i < 1000; i++ {
		ev.Cancel()
		ev = e.Schedule(1, func() {})
		if e.Pending() != 1 {
			t.Fatalf("pending = %d at iteration %d, want 1", e.Pending(), i)
		}
	}
}

func TestCancelBeforeAnyPop(t *testing.T) {
	var e Engine
	fired := false
	ev := e.Schedule(3, func() { fired = true })
	keep := 0
	e.Schedule(1, func() { keep++ })
	ev.Cancel()
	e.Run(10)
	if fired || keep != 1 {
		t.Errorf("fired=%v keep=%d after pre-pop cancel", fired, keep)
	}
}

func TestStaleCancelAfterPopSparesReusedRecord(t *testing.T) {
	// Generation-counter semantics: a ref held past its event's firing
	// must not cancel the pooled record's next occupant. With one
	// record in play, B is guaranteed to reuse A's slot.
	var e Engine
	stale := e.Schedule(1, func() {})
	e.Run(2) // A fires; its record returns to the free list
	bFired := false
	b := e.Schedule(1, func() { bFired = true })
	if !b.Scheduled() {
		t.Fatal("B not scheduled")
	}
	stale.Cancel() // refers to A's generation; must be a no-op
	if !b.Scheduled() {
		t.Error("stale Cancel of a fired event killed the record's new occupant")
	}
	e.Run(10)
	if !bFired {
		t.Error("reused event did not fire")
	}
}

func TestStaleCancelAfterRescheduleReuse(t *testing.T) {
	// Cancel, then reschedule (reusing the record): the ref from before
	// the cancel must stay inert through the record's next life.
	var e Engine
	stale := e.Schedule(5, func() {})
	stale.Cancel()
	fired := 0
	fresh := e.Schedule(1, func() { fired++ })
	stale.Cancel() // second stale cancel, now aimed at fresh's record
	if !fresh.Scheduled() {
		t.Fatal("stale Cancel reached the rescheduled event")
	}
	e.Run(10)
	if fired != 1 {
		t.Errorf("rescheduled event fired %d times, want 1", fired)
	}
	if stale.Scheduled() {
		t.Error("stale ref reports Scheduled")
	}
}

func TestPoolReusesRecords(t *testing.T) {
	// Steady-state schedule/fire churn must run entirely off the free
	// list: after warmup, no allocations per op.
	var e Engine
	fn := func() {}
	e.Schedule(1, fn)
	e.Run(2) // warm the pool and the heap's backing array
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(1, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule/fire churn allocates %v per op, want 0", allocs)
	}
}

// BenchmarkCancelChurn models netsim's backoff freeze/resume: every
// iteration cancels a live event and schedules a replacement. With lazy
// cancellation the heap would grow with dead entries; eager removal
// keeps it flat.
func BenchmarkCancelChurn(b *testing.B) {
	var e Engine
	const live = 64 // concurrently armed backoff events
	evs := make([]EventRef, live)
	for i := range evs {
		evs[i] = e.Schedule(float64(i+1), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % live
		evs[slot].Cancel()
		evs[slot] = e.Schedule(float64(live), func() {})
	}
	if e.Pending() > live {
		b.Fatalf("heap grew to %d entries despite cancels", e.Pending())
	}
}

// BenchmarkScheduleChurn is the pooled-allocation contract: the
// schedule→fire cycle that dominates netsim's event loop must not
// allocate once the free list is warm (~0 allocs/op under
// ReportAllocs).
func BenchmarkScheduleChurn(b *testing.B) {
	var e Engine
	fn := func() {}
	e.Schedule(1, fn)
	e.Run(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, fn)
		e.Step()
	}
}
