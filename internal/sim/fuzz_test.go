package sim

import (
	"fmt"
	"testing"
)

// refEntry is one event in the brute-force reference queue.
type refEntry struct {
	time float64
	seq  int
	id   int
}

// refQueue is the oracle FuzzEngineOrder holds the engine against: an
// unordered list whose pop scans for the smallest (time, seq).
type refQueue []refEntry

func (q *refQueue) pop() refEntry {
	m := 0
	for i, e := range *q {
		if e.time < (*q)[m].time || e.time == (*q)[m].time && e.seq < (*q)[m].seq {
			m = i
		}
	}
	e := (*q)[m]
	*q = append((*q)[:m], (*q)[m+1:]...)
	return e
}

func (q *refQueue) remove(id int) bool {
	for i, e := range *q {
		if e.id == id {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return true
		}
	}
	return false
}

// checkHeap verifies that every queued event's index names its slot
// and that no slot orders before its parent.
func checkHeap(e *Engine) error {
	for i := range e.queue {
		if got := e.queue[i].ev.index; got != i {
			return fmt.Errorf("slot %d holds an event whose index is %d", i, got)
		}
		if p := (i - 1) / 4; i > 0 && e.queue[i].before(&e.queue[p]) {
			return fmt.Errorf("slot %d (t=%v seq=%d) orders before its parent %d (t=%v seq=%d)",
				i, e.queue[i].time, e.queue[i].seq, p, e.queue[p].time, e.queue[p].seq)
		}
	}
	return nil
}

// FuzzEngineOrder decodes bytes into a sequence of At calls (delays on
// a half-microsecond grid of eight steps, so time ties are common),
// Cancels of any ref ever issued (live, already fired or already
// cancelled, whose record may since hold another event), Steps and
// Run(until) calls. The engine must fire the same events in the same
// order as a brute-force queue, agree with it on Scheduled, Pending
// and the clock, and after every operation hold each queued event's
// index at its slot, with the heap ordered.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1, 3, 0})
	f.Add([]byte{0, 4, 0, 4, 0, 0, 0, 7, 2, 1, 2, 1, 3, 0, 3, 0, 2, 0})
	f.Add([]byte{0, 3, 1, 3, 0, 3, 1, 3, 0, 3, 2, 2, 4, 9, 2, 0, 2, 4})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 2, 1, 4, 0, 0, 0, 3, 0, 2, 5})
	// Fourteen events laid out in insertion order, then a cancel of
	// slot 9 under slot 2 (t=3): the last slot, slot 13 (t=1.5) under
	// slot 3, fills the hole and must sift up.
	f.Add([]byte{0, 0, 0, 1, 0, 6, 0, 2, 0, 1, 0, 2, 0, 2, 0, 2, 0, 2,
		0, 7, 0, 7, 0, 7, 0, 7, 0, 3, 2, 9, 4, 15})
	f.Add([]byte{0, 6, 0, 5, 0, 4, 0, 3, 0, 2, 0, 1, 0, 0, 0, 7, 1, 7, 2, 4, 2, 2,
		2, 8, 3, 0, 0, 1, 3, 0, 4, 3, 2, 6, 0, 2, 4, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Engine
		var ref refQueue
		var refs []EventRef
		var fired []int
		seq := 0
		for k := 0; k+1 < len(data); k += 2 {
			op, arg := data[k]%5, data[k+1]
			switch op {
			case 0, 1:
				id := len(refs)
				tm := e.Now() + float64(arg%8)/2
				seq++
				refs = append(refs, e.At(tm, func() { fired = append(fired, id) }))
				ref = append(ref, refEntry{tm, seq, id})
			case 2:
				if len(refs) == 0 {
					continue
				}
				id := int(arg) % len(refs)
				live := ref.remove(id)
				if got := refs[id].Scheduled(); got != live {
					t.Fatalf("op %d: event %d Scheduled() = %v, reference says %v", k/2, id, got, live)
				}
				refs[id].Cancel()
				if refs[id].Scheduled() {
					t.Fatalf("op %d: event %d still Scheduled after Cancel", k/2, id)
				}
			case 3:
				fired = fired[:0]
				stepped := e.Step()
				if stepped != (len(ref) > 0) {
					t.Fatalf("op %d: Step() = %v with %d events queued", k/2, stepped, len(ref))
				}
				if stepped {
					want := ref.pop()
					if len(fired) != 1 || fired[0] != want.id || e.Now() != want.time {
						t.Fatalf("op %d: Step fired %v at t=%v, want [%d] at t=%v", k/2, fired, e.Now(), want.id, want.time)
					}
				}
			case 4:
				until := e.Now() + float64(arg%16)/2
				fired = fired[:0]
				e.Run(until)
				var want []int
				for len(ref) > 0 {
					next := ref.pop()
					if next.time > until {
						ref = append(ref, next)
						break
					}
					want = append(want, next.id)
				}
				if fmt.Sprint(fired) != fmt.Sprint(want) || e.Now() != until {
					t.Fatalf("op %d: Run(%v) fired %v and left the clock at %v, want %v", k/2, until, fired, e.Now(), want)
				}
			}
			if e.Pending() != len(ref) {
				t.Fatalf("op %d: Pending() = %d, reference holds %d", k/2, e.Pending(), len(ref))
			}
			if err := checkHeap(&e); err != nil {
				t.Fatalf("op %d: %v", k/2, err)
			}
		}
	})
}
