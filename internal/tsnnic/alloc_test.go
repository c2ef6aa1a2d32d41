package tsnnic

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// TestTSInjectionAllocatesOnlyTheFrame pins one TS injection into a
// busy MAC — sequence bookkeeping, the shared payload, the class FIFO —
// at one allocation, the Frame itself. The FIFO's pop/push cycle must
// reuse its backing array.
func TestTSInjectionAllocatesOnlyTheFrame(t *testing.T) {
	e := sim.NewEngine()
	gen, _, _ := wirePair(e)
	spec := tsSpec()
	gen.busy = true
	allocs := testing.AllocsPerRun(100, func() {
		gen.inject(spec)
		gen.fifos[classIndex(spec.Class)].Pop()
	})
	if allocs != 1 {
		t.Fatalf("TS injection allocated %.1f per frame, want 1 (the Frame)", allocs)
	}
}

// TestTSPeriodAllocatesFrameAndHeaderCopy pins one generated TS period
// end to end — tick, injection, transmit, delivery to a NIC without a
// collector, completion — at two allocations: the Frame and the header
// copy netdev hands the receiver.
func TestTSPeriodAllocatesFrameAndHeaderCopy(t *testing.T) {
	e := sim.NewEngine()
	gen := New(e, 1, ethernet.Gbps, nil)
	rcv := New(e, 2, ethernet.Gbps, nil)
	netdev.Connect(gen.Ifc(), rcv.Ifc(), 100*sim.Nanosecond)
	spec := tsSpec()
	gen.StartFlow(spec)
	allocs := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + spec.Period)
	})
	if allocs != 2 {
		t.Fatalf("TS period allocated %.1f, want 2 (Frame + header copy)", allocs)
	}
	if _, rx, _ := rcv.Ifc().Counters(); rx == 0 {
		t.Fatal("no frame delivered")
	}
}

// TestGeneratedPayloadsShareOneBuffer checks generated payloads alias
// the shared read-only buffer at the flow's wire size, capped so an
// append can never write into it.
func TestGeneratedPayloadsShareOneBuffer(t *testing.T) {
	e := sim.NewEngine()
	gen, _, _ := wirePair(e)
	gen.busy = true
	spec := tsSpec()
	spec.WireSize = ethernet.MaxFrameBytes
	gen.inject(spec)
	gen.inject(spec)
	a, b := gen.fifos[0].Pop(), gen.fifos[0].Pop()
	if a.WireBytes() != ethernet.MaxFrameBytes || &a.Payload[0] != &b.Payload[0] || &a.Payload[0] != &zeroPayload[0] {
		t.Fatal("payloads do not share the zero buffer at full size")
	}
	if cap(a.Payload) != len(a.Payload) {
		t.Fatalf("payload cap %d exceeds len %d", cap(a.Payload), len(a.Payload))
	}
}
