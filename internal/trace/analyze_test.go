package trace

import (
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// record a packet's journey: enqueue at sw/port at t, tx at t+d.
func journey(r *Recorder, flow, seq uint32, sw, port, queue int, at, residence sim.Time) {
	r.Record(Event{At: at, Kind: KindEnqueue, Switch: sw, Port: port, Queue: queue, FlowID: flow, Seq: seq})
	r.Record(Event{At: at + residence, Kind: KindTxStart, Switch: sw, Port: port, Queue: queue, FlowID: flow, Seq: seq})
}

func TestResidences(t *testing.T) {
	var r Recorder
	journey(&r, 1, 0, 0, 1, 7, 0, 10*sim.Microsecond)
	journey(&r, 1, 0, 1, 0, 7, 20*sim.Microsecond, 30*sim.Microsecond)
	journey(&r, 2, 0, 0, 1, 7, 5*sim.Microsecond, 20*sim.Microsecond)

	res := Residences(&r)
	if len(res) != 2 {
		t.Fatalf("cells = %d, want 2", len(res))
	}
	// Worst max first: sw1 (30µs) then sw0 (20µs).
	if res[0].Switch != 1 || res[0].Max != 30*sim.Microsecond {
		t.Fatalf("worst = %+v", res[0])
	}
	sw0 := res[1]
	if sw0.Count != 2 || sw0.Mean() != 15*sim.Microsecond || sw0.Max != 20*sim.Microsecond {
		t.Fatalf("sw0 = %+v", sw0)
	}
	if !strings.Contains(sw0.String(), "sw0.p1 q7") {
		t.Fatalf("format: %s", sw0.String())
	}
}

func TestResidencesIgnoresDrops(t *testing.T) {
	var r Recorder
	r.Record(Event{At: 0, Kind: KindEnqueue, Switch: 0, Port: 1, Queue: 7, FlowID: 1, Seq: 0})
	r.Record(Event{At: 5, Kind: KindDrop, Switch: 0, Port: 1, Queue: 7, FlowID: 1, Seq: 0})
	if res := Residences(&r); len(res) != 0 {
		t.Fatalf("dropped packet produced residences: %v", res)
	}
}

func TestResidencesMultiHopPairing(t *testing.T) {
	// One packet crossing two switches: each enqueue pairs with its own
	// switch's tx, not the downstream one.
	var r Recorder
	journey(&r, 1, 0, 0, 0, 7, 0, 10)
	journey(&r, 1, 0, 1, 0, 7, 100, 40)
	res := Residences(&r)
	if len(res) != 2 {
		t.Fatalf("cells = %d", len(res))
	}
	for _, c := range res {
		switch c.Switch {
		case 0:
			if c.Max != 10 {
				t.Fatalf("sw0 residence %v", c.Max)
			}
		case 1:
			if c.Max != 40 {
				t.Fatalf("sw1 residence %v", c.Max)
			}
		}
	}
}

func TestResidencesTieOrderIsFixed(t *testing.T) {
	// Two queues of one port with equal worst residence: the order must
	// not depend on map iteration, so the lower queue always comes first.
	var r Recorder
	journey(&r, 1, 0, 0, 2, 7, 0, 10*sim.Microsecond)
	journey(&r, 2, 0, 0, 2, 6, 0, 10*sim.Microsecond)
	for i := 0; i < 50; i++ {
		res := Residences(&r)
		if len(res) != 2 {
			t.Fatalf("cells = %d, want 2", len(res))
		}
		if res[0].Queue != 6 || res[1].Queue != 7 {
			t.Fatalf("call %d: order %s, %s; want q6 before q7", i, res[0], res[1])
		}
	}
}

func TestTopResidences(t *testing.T) {
	var r Recorder
	for i := 0; i < 5; i++ {
		journey(&r, uint32(i+1), 0, i, 0, 7, 0, sim.Time(i+1)*sim.Microsecond)
	}
	top := TopResidences(&r, 2)
	if len(top) != 2 {
		t.Fatalf("top = %d", len(top))
	}
	if top[0].Switch != 4 || top[1].Switch != 3 {
		t.Fatalf("ordering wrong: %v", top)
	}
	if TopResidences(nil, 3) != nil {
		t.Fatal("nil recorder produced results")
	}
}
