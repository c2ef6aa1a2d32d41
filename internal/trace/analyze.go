package trace

import (
	"fmt"
	"sort"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// Residence aggregates how long frames sat in one egress queue between
// enqueue and transmission start — the per-hop residence time a
// hardware bring-up reads off probe timestamps.
type Residence struct {
	Switch int
	Port   int
	Queue  int
	Count  uint64
	Sum    sim.Time
	Max    sim.Time
}

// Mean returns the average residence time.
func (r Residence) Mean() sim.Time {
	if r.Count == 0 {
		return 0
	}
	return r.Sum / sim.Time(r.Count)
}

// String implements fmt.Stringer.
func (r Residence) String() string {
	return fmt.Sprintf("sw%d.p%d q%d: %d frames, mean %v, max %v",
		r.Switch, r.Port, r.Queue, r.Count, r.Mean(), r.Max)
}

// Residences pairs each enqueue with the next transmission start of the
// same packet on the same switch/port and aggregates per (switch, port,
// queue). Dropped packets contribute nothing.
func Residences(rec *Recorder) []Residence {
	if rec == nil {
		return nil
	}
	type key struct{ sw, port, queue int }
	agg := make(map[key]*Residence)
	for pk := range rec.byPacket {
		evs := rec.Packet(pk.FlowID, pk.Seq)
		// Events are in record (time) order; walk matching pairs.
		for i := 0; i < len(evs); i++ {
			if evs[i].Kind != KindEnqueue {
				continue
			}
			enq := evs[i]
			for j := i + 1; j < len(evs); j++ {
				tx := evs[j]
				if tx.Kind != KindTxStart || tx.Switch != enq.Switch || tx.Port != enq.Port {
					continue
				}
				k := key{enq.Switch, enq.Port, enq.Queue}
				a, ok := agg[k]
				if !ok {
					a = &Residence{Switch: enq.Switch, Port: enq.Port, Queue: enq.Queue}
					agg[k] = a
				}
				d := tx.At - enq.At
				a.Count++
				a.Sum += d
				if d > a.Max {
					a.Max = d
				}
				break
			}
		}
	}
	out := make([]Residence, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Max != out[j].Max {
			return out[i].Max > out[j].Max
		}
		if out[i].Switch != out[j].Switch {
			return out[i].Switch < out[j].Switch
		}
		if out[i].Port != out[j].Port {
			return out[i].Port < out[j].Port
		}
		return out[i].Queue < out[j].Queue
	})
	return out
}

// TopResidences returns the n worst residence cells (by max).
func TopResidences(rec *Recorder, n int) []Residence {
	all := Residences(rec)
	if len(all) > n {
		all = all[:n]
	}
	return all
}
