package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// checkHeap verifies the heap invariants the engine relies on: every
// entry is no smaller than its parent and records its own slot in its
// event's index.
func checkHeap(t *testing.T, e *Engine) bool {
	t.Helper()
	for i := range e.queue {
		if e.queue[i].ev.index != i {
			t.Errorf("entry %d has index %d", i, e.queue[i].ev.index)
			return false
		}
		if i > 0 && e.queue[i].less(&e.queue[(i-1)/heapArity]) {
			t.Errorf("entry %d is smaller than its parent", i)
			return false
		}
	}
	return true
}

// TestEngineHeapMatchesReferenceModel runs random mixes of At, AtPrio,
// Cancel (interior entries and stale refs included) and single steps
// against a reference model: the pending set sorted by (at, prio, seq).
// Every step must fire the model's minimum, every cancel of a pending
// ref must succeed and every cancel of a fired or canceled ref fail.
func TestEngineHeapMatchesReferenceModel(t *testing.T) {
	type pending struct {
		at   Time
		prio uint64
		seq  uint64
		ref  EventRef
	}
	prop := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var model []pending
		var stale []EventRef
		var fired []uint64
		var seq uint64
		less := func(a, b pending) bool {
			if a.at != b.at {
				return a.at < b.at
			}
			if a.prio != b.prio {
				return a.prio < b.prio
			}
			return a.seq < b.seq
		}
		for n := int(size % 2048); n > 0; n-- {
			switch op := rng.Intn(10); {
			case op < 5: // schedule; a narrow time range forces ties
				at := e.Now() + Time(rng.Intn(6))
				id := seq
				seq++
				var ref EventRef
				if op < 2 {
					ref = e.At(at, "m", func(*Engine) { fired = append(fired, id) })
					model = append(model, pending{at: at, seq: id, ref: ref})
				} else {
					prio := uint64(rng.Intn(3))
					ref = e.AtPrio(at, prio, "m", func(*Engine) { fired = append(fired, id) })
					model = append(model, pending{at: at, prio: prio, seq: id, ref: ref})
				}
			case op < 7: // cancel any pending event, usually an interior one
				if len(model) == 0 {
					continue
				}
				k := rng.Intn(len(model))
				if !e.Cancel(model[k].ref) {
					t.Errorf("cancel of pending seq %d failed", model[k].seq)
					return false
				}
				stale = append(stale, model[k].ref)
				model = append(model[:k], model[k+1:]...)
			case op < 8: // cancel a fired or canceled ref: must be refused
				if len(stale) == 0 {
					continue
				}
				r := stale[rng.Intn(len(stale))]
				if r.Valid() || e.Cancel(r) {
					t.Error("stale ref still cancels")
					return false
				}
			default: // fire the earliest event
				if len(model) == 0 {
					continue
				}
				best := 0
				for k := range model {
					if less(model[k], model[best]) {
						best = k
					}
				}
				fired = fired[:0]
				if !e.step() || len(fired) != 1 || fired[0] != model[best].seq {
					t.Errorf("step fired %v, want seq %d", fired, model[best].seq)
					return false
				}
				if e.Now() != model[best].at {
					t.Errorf("clock %v after step, want %v", e.Now(), model[best].at)
					return false
				}
				stale = append(stale, model[best].ref)
				model = append(model[:best], model[best+1:]...)
			}
			if e.Pending() != len(model) || !checkHeap(t, e) {
				return false
			}
		}
		// Drain: the remaining events fire in model order.
		sort.Slice(model, func(i, j int) bool { return less(model[i], model[j]) })
		fired = fired[:0]
		e.Run()
		if len(fired) != len(model) {
			t.Errorf("drain fired %d events, want %d", len(fired), len(model))
			return false
		}
		for k := range model {
			if fired[k] != model[k].seq {
				t.Errorf("drain position %d fired seq %d, want %d", k, fired[k], model[k].seq)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineSchedulingAllocatesNothing pins the steady-state cost of
// At, AtPrio, Cancel and dispatch at zero allocations.
func TestEngineSchedulingAllocatesNothing(t *testing.T) {
	e := NewEngine()
	nop := func(*Engine) {}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			e.At(e.Now()+Time(i%5), "a", nop)
			r := e.AtPrio(e.Now()+Time(i%3), uint64(i%4), "p", nop)
			if i%2 == 0 {
				e.Cancel(r)
			}
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("scheduling allocated %.1f per run, want 0", allocs)
	}
}
