package netdev

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// nopReceiver discards every frame, so the allocation guards measure
// netdev alone.
type nopReceiver struct{ n int }

func (r *nopReceiver) Receive(*ethernet.Frame, *Ifc) { r.n++ }

// nopPair cables two interfaces whose owners discard arrivals.
func nopPair(e *sim.Engine) (*Ifc, *Ifc, *nopReceiver) {
	rx := &nopReceiver{}
	a := NewIfc(e, "a", &nopReceiver{}, ethernet.Gbps)
	b := NewIfc(e, "b", rx, ethernet.Gbps)
	Connect(a, b, 100*sim.Nanosecond)
	return a, b, rx
}

// TestLocalHopAllocatesOnlyHeaderCopy pins a local transmit → deliver →
// done cycle at one allocation: the receiver's header copy.
func TestLocalHopAllocatesOnlyHeaderCopy(t *testing.T) {
	e := sim.NewEngine()
	a, _, rx := nopPair(e)
	f := &ethernet.Frame{Payload: make([]byte, 100)}
	done := 0
	onDone := func() { done++ }
	allocs := testing.AllocsPerRun(100, func() {
		a.Transmit(f, onDone)
		e.Run()
	})
	if allocs != 1 {
		t.Fatalf("local hop allocated %.1f per frame, want 1 (the header copy)", allocs)
	}
	if rx.n != done || done == 0 {
		t.Fatalf("delivered %d, completed %d", rx.n, done)
	}
}

// TestCutLinkHopAllocatesOnlyHeaderCopy pins the partition-boundary
// path (SetRemotePost → ScheduleRemoteDelivery) at the same single
// allocation.
func TestCutLinkHopAllocatesOnlyHeaderCopy(t *testing.T) {
	e := sim.NewEngine()
	a, b, rx := nopPair(e)
	a.SetRemotePost(b.ScheduleRemoteDelivery)
	f := &ethernet.Frame{Payload: make([]byte, 100)}
	allocs := testing.AllocsPerRun(100, func() {
		a.Transmit(f, nil)
		e.Run()
	})
	if allocs != 1 {
		t.Fatalf("cut-link hop allocated %.1f per frame, want 1 (the header copy)", allocs)
	}
	if rx.n == 0 {
		t.Fatal("no frame delivered across the cut link")
	}
}

// TestInFlightFIFOOnLongCable keeps several frames on the wire at once
// (propagation far longer than a frame) and checks each arrives once,
// in order, at its own instant — the FIFO pops in arrival order.
func TestInFlightFIFOOnLongCable(t *testing.T) {
	e := sim.NewEngine()
	sa, sb := &sink{engine: e}, &sink{engine: e}
	a := NewIfc(e, "a", sa, ethernet.Gbps)
	b := NewIfc(e, "b", sb, ethernet.Gbps)
	Connect(a, b, 10*sim.Microsecond)
	sent := uint32(0)
	var next func()
	next = func() {
		if sent == 40 {
			return
		}
		sent++
		a.Transmit(&ethernet.Frame{Seq: sent}, next)
	}
	e.After(0, "start", func(*sim.Engine) { next() })
	e.Run()
	if len(sb.frames) != 40 {
		t.Fatalf("delivered %d frames, want 40", len(sb.frames))
	}
	for k, f := range sb.frames {
		if f.Seq != uint32(k+1) {
			t.Fatalf("arrival %d carries seq %d", k, f.Seq)
		}
		// 64 B at 1 Gbps: 512 ns on the wire, 672 ns between starts.
		want := sim.Time(k)*672 + 512 + 10*sim.Microsecond
		if sb.times[k] != want {
			t.Fatalf("arrival %d at %v, want %v", k, sb.times[k], want)
		}
	}
}

// TestAbortDropsOnlyTheAbortedFrame aborts a frame while earlier frames
// are still on a long cable: the earlier ones arrive, the aborted one
// does not, and the resumed frame arrives whole.
func TestAbortDropsOnlyTheAbortedFrame(t *testing.T) {
	e := sim.NewEngine()
	sa, sb := &sink{engine: e}, &sink{engine: e}
	a := NewIfc(e, "a", sa, ethernet.Gbps)
	b := NewIfc(e, "b", sb, ethernet.Gbps)
	Connect(a, b, 50*sim.Microsecond)
	var h *TxHandle
	big := &ethernet.Frame{Seq: 2, Payload: make([]byte, 1478)}
	e.After(0, "first", func(*sim.Engine) {
		a.Transmit(&ethernet.Frame{Seq: 1}, func() { h = a.TransmitHandle(big, nil) })
	})
	e.RunUntil(6 * sim.Microsecond)
	remaining, ok := h.Abort()
	if !ok {
		t.Fatal("abort refused")
	}
	e.RunUntil(e.Now() + ethernet.TxTime(ethernet.OverheadBytes, ethernet.Gbps))
	a.Resume(big, remaining, nil)
	e.Run()
	if len(sb.frames) != 2 || sb.frames[0].Seq != 1 || sb.frames[1].Seq != 2 {
		t.Fatalf("delivered %d frames, want seq 1 then the resumed seq 2", len(sb.frames))
	}
}
