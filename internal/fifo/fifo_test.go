package fifo

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSliceModel runs random pushes, pops and tail drops
// against a plain slice and checks every popped value and length.
func TestQueueMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var model []int
	next := 0
	for i := 0; i < 20000; i++ {
		switch op := rng.Intn(5); {
		case op < 2 || len(model) == 0:
			q.Push(next)
			model = append(model, next)
			next++
		case op < 4:
			if got := q.Pop(); got != model[0] {
				t.Fatalf("step %d: Pop = %d, want %d", i, got, model[0])
			}
			model = model[1:]
		default:
			q.DropTail()
			model = model[:len(model)-1]
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", i, q.Len(), len(model))
		}
	}
}

// TestQueueReusesArray pins the steady state of a queue that cycles at
// a bounded length at zero allocations, and checks consumed slots are
// cleared so the queue does not pin what it handed out.
func TestQueueReusesArray(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 4; i++ {
		q.Push(new(int))
	}
	x := new(int)
	allocs := testing.AllocsPerRun(100, func() {
		q.Push(x)
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("cycling queue allocated %.1f per push/pop, want 0", allocs)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i, p := range q.buf[:cap(q.buf)] {
		if p != nil {
			t.Fatalf("slot %d still holds a popped entry", i)
		}
	}
}
