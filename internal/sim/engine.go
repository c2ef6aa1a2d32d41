package sim

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
)

// Handler is a callback executed when an event fires. It receives the
// engine so it can schedule follow-up events.
type Handler func(e *Engine)

// event is a scheduled callback. Ties between events scheduled for the
// same instant break on (prio, seq): prio is a stable identity assigned
// by the caller (AtPrio) — zero for ordinary events, a unique
// per-interface index for frame deliveries — and seq is the scheduling
// order. Ordinary events therefore stay FIFO in scheduling order, while
// deliveries order by interface identity, which is what lets a
// partitioned run reproduce the serial execution order exactly: an
// interface index is the same number no matter which engine schedules
// the delivery, whereas a creation seq is not. The (at, prio, seq) key
// itself lives inline in the heap entry, not here.
//
// Popped and canceled events are recycled through the engine's free
// list, so steady-state scheduling allocates nothing. gen increments on
// every recycle; an EventRef snapshots it so a stale ref can never
// resurrect (or cancel) a reused event.
type event struct {
	fn    Handler
	index int // heap index, -1 once popped or canceled
	label string
	gen   uint32
}

// entry is one heap slot: the ordering key stored inline so sifting
// compares entries without dereferencing the event they point at.
type entry struct {
	at   Time
	prio uint64
	seq  uint64
	ev   *event
}

// less orders entries by (at, prio, seq). seq is unique per engine, so
// the order is total and every correct heap pops the same sequence.
func (a *entry) less(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// heapArity is the fan-out of the event heap. A 4-ary heap is half as
// deep as a binary one and its four children share a cache line or
// two, which wins on the pop-heavy dispatch loop.
const heapArity = 4

// eventHeap is a 4-ary min-heap of entries ordered by (at, prio, seq).
// Every move updates the moved event's index so Cancel can remove an
// interior entry.
type eventHeap []entry

// set places x at slot i and records the position on its event.
func (h eventHeap) set(i int, x entry) {
	h[i] = x
	x.ev.index = i
}

// up sifts the entry at i toward the root.
func (h eventHeap) up(i int) {
	x := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !x.less(&h[parent]) {
			break
		}
		h.set(i, h[parent])
		i = parent
	}
	h.set(i, x)
}

// down sifts the entry at i toward the leaves and reports whether it
// moved.
func (h eventHeap) down(i int) bool {
	n := len(h)
	x := h[i]
	start := i
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].less(&h[best]) {
				best = c
			}
		}
		if !h[best].less(&x) {
			break
		}
		h.set(i, h[best])
		i = best
	}
	h.set(i, x)
	return i != start
}

// push appends x and restores the heap order.
func (h *eventHeap) push(x entry) {
	*h = append(*h, x)
	h.up(len(*h) - 1)
}

// remove takes out the entry at i (the root for a pop, any slot for a
// cancel) and returns its event with index -1. The last entry fills the
// hole and sifts down, or up when it is smaller than the hole's parent.
func (h *eventHeap) remove(i int) *event {
	old := *h
	n := len(old) - 1
	ev := old[i].ev
	last := old[n]
	old[n] = entry{}
	*h = old[:n]
	if i != n {
		(*h).set(i, last)
		if !(*h).down(i) && i > 0 {
			(*h).up(i)
		}
	}
	ev.index = -1
	return ev
}

// EventRef identifies a scheduled event so it can be canceled. The zero
// value refers to no event. A ref is pinned to the scheduling it came
// from: once the event fires or is canceled its slot may be recycled
// for a later scheduling, and the ref (generation-checked) reports
// invalid rather than aliasing the new occupant.
type EventRef struct {
	ev  *event
	gen uint32
}

// Valid reports whether the reference points at a still-pending event.
func (r EventRef) Valid() bool { return r.ev != nil && r.ev.gen == r.gen && r.ev.index >= 0 }

// Engine is a deterministic discrete-event scheduler. The zero value is
// not ready for use; construct with NewEngine.
type Engine struct {
	now     Time
	queue   eventHeap
	nextSeq uint64
	stopped bool
	// free recycles fired/canceled event structs so steady-state
	// scheduling is allocation-free. Bounded by the worst concurrent
	// pending-event count, not by total events executed.
	free []*event
	// Executed counts events run since construction; useful for
	// progress accounting in benchmarks.
	executed uint64

	// Telemetry handles; zero values are no-ops.
	metExecuted metrics.Counter
	metHeapHW   metrics.Gauge
	// Progress hook: fire progressFn every progressEvery events.
	progressEvery uint64
	progressLeft  uint64
	progressFn    func(executed uint64, now Time)
}

// NewEngine returns an engine positioned at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Instrument binds the engine's telemetry: executed counts every
// dispatched event, heapHW tracks the worst pending-event heap depth.
// Call once, before Run; passing a nil registry's handles is safe.
func (e *Engine) Instrument(executed metrics.Counter, heapHW metrics.Gauge) {
	e.metExecuted = executed
	e.metHeapHW = heapHW
}

// SetProgress arranges for fn to be called every `every` dispatched
// events — the hook wall-clock progress reporters build on. A zero
// every or nil fn disables the hook.
func (e *Engine) SetProgress(every uint64, fn func(executed uint64, now Time)) {
	if every == 0 || fn == nil {
		e.progressEvery, e.progressFn = 0, nil
		return
	}
	e.progressEvery = every
	e.progressLeft = every
	e.progressFn = fn
}

// Now returns the current simulated time. During an event callback this
// is the event's scheduled instant.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have been dispatched.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// alloc takes an event struct off the free list, or heap-allocates one
// when the list is dry (cold start or a new pending-depth high water).
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a popped/canceled event to the free list. The
// closure and label are cleared eagerly so a parked struct never
// retains the callback's captured state, and the generation bump
// invalidates every outstanding EventRef to this slot.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.label = ""
	ev.gen++
	e.free = append(e.free, ev)
}

// At schedules fn to run at the absolute instant at. Scheduling in the
// past (before Now) panics: it indicates a causality bug in the caller.
func (e *Engine) At(at Time, label string, fn Handler) EventRef {
	return e.AtPrio(at, 0, label, fn)
}

// AtPrio schedules fn at the absolute instant at with an explicit
// same-instant tie-break priority. Events at one instant execute in
// (prio, scheduling-order) order; plain At/After events carry prio 0
// and so run before any prioritized event at the same instant. Callers
// use prio as a stable identity (netdev stamps frame deliveries with
// the receiving interface's global index) so execution order at an
// instant is a function of the model, not of which engine scheduled
// the event — the property partitioned runs need to match serial runs
// byte for byte.
func (e *Engine) AtPrio(at Time, prio uint64, label string, fn Handler) EventRef {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v which is before now %v", label, at, e.now))
	}
	ev := e.alloc()
	ev.fn, ev.label = fn, label
	e.queue.push(entry{at: at, prio: prio, seq: e.nextSeq, ev: ev})
	e.nextSeq++
	e.metHeapHW.SetMax(int64(len(e.queue)))
	return EventRef{ev: ev, gen: ev.gen}
}

// After schedules fn to run delay after the current time.
func (e *Engine) After(delay Time, label string, fn Handler) EventRef {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", delay, label))
	}
	return e.At(e.now+delay, label, fn)
}

// Cancel removes a pending event. Canceling an already-fired or
// already-canceled event is a no-op and returns false. The canceled
// event's closure is released immediately (and its struct recycled), so
// a canceled timer never pins its captured state.
func (e *Engine) Cancel(r EventRef) bool {
	if !r.Valid() {
		return false
	}
	e.recycle(e.queue.remove(r.ev.index))
	return true
}

// Stop makes the current Run/RunUntil/RunBefore/RunFor call return
// after the in-flight event completes. Pending events remain queued and
// the clock stays at the last executed event's instant — a stopped
// bounded run does NOT jump to its deadline, so Now() always reflects
// how far the simulation actually got. The flag is consumed by the next
// run call (each entry point resets it), so Stop outside a run is a
// no-op.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether the last run call ended early via Stop.
func (e *Engine) Stopped() bool { return e.stopped }

// step pops and runs the earliest event. It reports false when the
// queue is empty.
func (e *Engine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.now = e.queue[0].at
	ev := e.queue.remove(0)
	e.executed++
	e.metExecuted.Inc()
	if e.progressFn != nil {
		e.progressLeft--
		if e.progressLeft == 0 {
			e.progressLeft = e.progressEvery
			e.progressFn(e.executed, e.now)
		}
	}
	// Recycle before dispatch: the handler's own follow-up scheduling
	// (the self-rescheduling tick every periodic source uses) reuses
	// this very struct, making the steady state allocation-free.
	fn := ev.fn
	e.recycle(ev)
	fn(e)
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to the deadline. Events scheduled beyond the deadline stay
// queued. If Stop ends the run early the clock is NOT advanced to the
// deadline — it stays at the last executed event so callers can see
// where the run actually stopped (check Stopped()).
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		if len(e.queue) == 0 || e.queue[0].at > deadline {
			break
		}
		e.step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// RunBefore executes events with timestamps strictly before limit, then
// sets the clock to limit. It is the half-open window primitive the
// partitioned scheduler steps with: a conservative window [T, T+W) runs
// via RunBefore(T+W), leaving every event at exactly T+W (including
// cross-partition deliveries arriving at the window edge) for the next
// window. As with RunUntil, an early Stop leaves the clock where the
// run stopped.
func (e *Engine) RunBefore(limit Time) {
	e.stopped = false
	for !e.stopped {
		if len(e.queue) == 0 || e.queue[0].at >= limit {
			break
		}
		e.step()
	}
	if !e.stopped && e.now < limit {
		e.now = limit
	}
}

// RunFor advances the simulation by d from the current instant.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
