package tsnswitch

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// countingEnd is an end station that only counts arrivals, so the
// allocation guard measures the switch and the links alone.
type countingEnd struct{ n int }

func (c *countingEnd) Receive(*ethernet.Frame, *netdev.Ifc) { c.n++ }

// TestUnicastHopAllocatesOnlyHeaderCopy pins one unicast TS frame's
// ingress → egress hop (forward, filter, CQF gate, queue, retry at the
// slot boundary, transmit, delivery) at one allocation: the egress
// header copy netdev hands the next node.
func TestUnicastHopAllocatesOnlyHeaderCopy(t *testing.T) {
	cfg := testConfig()
	e := sim.NewEngine()
	sw := New(e, cfg)
	out := &countingEnd{}
	netdev.Connect(sw.Ifc(0), netdev.NewIfc(e, "in", &countingEnd{}, ethernet.Gbps), 100*sim.Nanosecond)
	netdev.Connect(sw.Ifc(1), netdev.NewIfc(e, "out", out, ethernet.Gbps), 100*sim.Nanosecond)
	if err := sw.Forward().Unicast.Add(ethernet.HostMAC(1), 1, 1); err != nil {
		t.Fatal(err)
	}
	f := tsFrame(1, 1)
	port := sw.Port(0)
	allocs := testing.AllocsPerRun(100, func() {
		port.Receive(f, nil)
		e.RunUntil(e.Now() + 2*cfg.SlotSize)
	})
	if allocs != 1 {
		t.Fatalf("switch hop allocated %.1f per frame, want 1 (the header copy)", allocs)
	}
	if st := sw.Stats(); out.n == 0 || st.TotalDrops() != 0 || st.TxFrames != uint64(out.n) {
		t.Fatalf("delivered %d, stats %+v", out.n, st)
	}
}
