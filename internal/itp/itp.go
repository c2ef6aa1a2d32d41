// Package itp implements Injection Time Planning, the flow-scheduling
// mechanism of the authors' companion paper ([24], INFOCOM 2020) that
// the evaluation's queue-depth choice rests on ("the queue depth is 8
// here with our flow scheduling algorithm").
//
// Under CQF, a packet injected in slot s occupies the TS queue of hop
// h's egress port during slot s+h. If every flow injects at phase 0,
// all packets of a switch pile into the same slot and the queue depth
// must cover the whole flow count. ITP staggers each flow's injection
// offset within its period so that per-(port, slot) occupancy — and
// therefore the required queue depth and buffer count — stays small.
//
// The planner here is the greedy heuristic: flows are placed one at a
// time, each choosing the offset that minimizes the worst occupancy the
// flow would create along its own path.
package itp

import (
	"fmt"
	"sort"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// maxHyperperiod caps the planning grid; beyond it the schedule folds
// onto the largest period (a safe over-approximation of occupancy).
const maxHyperperiod = 1 << 16

// CellKey identifies the queueing point of flow spec at hop index hop
// (0-based within spec.Path). The default keys by switch ID alone,
// which conservatively merges all ports of a switch; testbeds supply a
// port-aware function.
type CellKey func(spec *flows.Spec, hop int) string

// DefaultCellKey keys by the switch at the hop.
func DefaultCellKey(spec *flows.Spec, hop int) string {
	return fmt.Sprintf("sw%d", spec.Path[hop])
}

// Plan is the planner's result.
type Plan struct {
	// Offsets maps flow ID to its injection offset within the period
	// (a whole number of slots).
	Offsets map[uint32]sim.Time
	// MaxOccupancy is the worst packets-per-slot of any queueing point:
	// the queue depth the network needs.
	MaxOccupancy int
	// PerCell reports the worst occupancy per queueing point.
	PerCell map[string]int
	// Slot echoes the slot size planned against.
	Slot sim.Time
}

// gcd/lcm over int64.
func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int64) int64 {
	g := gcd(a, b)
	l := a / g * b
	if l <= 0 || l > maxHyperperiod {
		return 0 // overflow sentinel; caller caps
	}
	return l
}

// Compute plans offsets for the TS flows in specs. Non-TS flows are
// ignored. slot is the CQF slot size; key may be nil for
// DefaultCellKey. Flows must have non-empty paths.
func Compute(specs []*flows.Spec, slot sim.Time, key CellKey) (*Plan, error) {
	if slot <= 0 {
		return nil, fmt.Errorf("itp: non-positive slot %v", slot)
	}
	if key == nil {
		key = DefaultCellKey
	}
	var ts []*flows.Spec
	for _, s := range specs {
		if s.Class != ethernet.ClassTS || s.Period <= 0 {
			continue
		}
		if len(s.Path) == 0 {
			return nil, fmt.Errorf("itp: flow %d has no path", s.ID)
		}
		if s.Period < slot {
			return nil, fmt.Errorf("itp: flow %d period %v below slot %v", s.ID, s.Period, slot)
		}
		ts = append(ts, s)
	}
	plan := &Plan{
		Offsets: make(map[uint32]sim.Time),
		PerCell: make(map[string]int),
		Slot:    slot,
	}
	if len(ts) == 0 {
		return plan, nil
	}
	g := newGrid(ts, slot)

	// Plan longest-period flows first: they have the most offset
	// freedom relative to their footprint, and short-period flows are
	// the binding constraint placed against an almost-final grid.
	order := make([]int, len(ts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if g.period[a] != g.period[b] {
			return g.period[a] > g.period[b]
		}
		return ts[a].ID < ts[b].ID
	})

	// Scratch reused across flows: the flow's grid rows, and per
	// candidate offset o the worst and summed occupancy the flow would
	// create along its path.
	var rows [][]int
	worstBuf := make([]int, g.maxPeriod)
	sumBuf := make([]int, g.maxPeriod)
	for _, i := range order {
		s, p := ts[i], g.period[i]
		reps := g.hyper / p
		rows = g.rows(rows[:0], s, key)
		w, sm := worstBuf[:p], sumBuf[:p]
		clear(w)
		clear(sm)
		// Hop-major: each row is scanned once per repetition across
		// every candidate offset, instead of once per offset.
		for h, row := range rows {
			for r := int64(0); r < reps; r++ {
				score(row, (int64(h)+r*p)%g.hyper, w, sm)
			}
		}
		// The first offset minimizing (worst, sum) wins ties.
		best := 0
		for o := 1; o < len(w); o++ {
			if w[o] < w[best] || (w[o] == w[best] && sm[o] < sm[best]) {
				best = o
			}
		}
		g.place(rows, int64(best), p)
		plan.Offsets[s.ID] = sim.Time(best) * slot
	}

	for c, row := range g.cells {
		worst := 0
		for _, v := range row {
			if v > worst {
				worst = v
			}
		}
		plan.PerCell[c] = worst
		if worst > plan.MaxOccupancy {
			plan.MaxOccupancy = worst
		}
	}
	return plan, nil
}

// grid is the per-cell occupancy of one hyperperiod, in slots.
type grid struct {
	// period[i] is flow i's period in slots (floor: conservative —
	// occupancy repeats at least this often), at least 1.
	period    []int64
	maxPeriod int64
	hyper     int64
	cells     map[string][]int
}

// newGrid sizes an empty grid for the TS flows ts.
func newGrid(ts []*flows.Spec, slot sim.Time) *grid {
	g := &grid{period: make([]int64, len(ts)), hyper: 1, cells: make(map[string][]int)}
	for i, s := range ts {
		p := int64(s.Period / slot)
		if p < 1 {
			p = 1
		}
		g.period[i] = p
		if p > g.maxPeriod {
			g.maxPeriod = p
		}
		if g.hyper != 0 {
			g.hyper = lcm(g.hyper, p)
		}
	}
	if g.hyper == 0 {
		// Cap: fold onto the largest period.
		g.hyper = g.maxPeriod
	}
	return g
}

// rows appends to dst the grid row of each hop of s, creating missing
// rows: one key call and one map lookup per hop.
func (g *grid) rows(dst [][]int, s *flows.Spec, key CellKey) [][]int {
	for h := range s.Path {
		c := key(s, h)
		row, ok := g.cells[c]
		if !ok {
			row = make([]int, g.hyper)
			g.cells[c] = row
		}
		dst = append(dst, row)
	}
	return dst
}

// place adds one packet per repetition of period p at offset o to
// every hop's row (hop h occupies slot o+h).
func (g *grid) place(rows [][]int, o, p int64) {
	for h, row := range rows {
		for r := int64(0); r < g.hyper/p; r++ {
			row[(o+int64(h)+r*p)%g.hyper]++
		}
	}
}

// score adds, for every candidate offset o < len(worst), the occupancy
// row[(start+o) mod len(row)]+1 that placing a packet there would
// reach into sum[o] and raises worst[o] to it. len(worst) ≤ len(row),
// so the index wraps at most once.
func score(row []int, start int64, worst, sum []int) {
	head := row[start:]
	if len(head) > len(worst) {
		head = head[:len(worst)]
	}
	for o, c := range head {
		v := c + 1
		sum[o] += v
		if v > worst[o] {
			worst[o] = v
		}
	}
	worst, sum = worst[len(head):], sum[len(head):]
	for o, c := range row[:len(worst)] {
		v := c + 1
		sum[o] += v
		if v > worst[o] {
			worst[o] = v
		}
	}
}

// Apply writes the planned offsets into the specs.
func (p *Plan) Apply(specs []*flows.Spec) {
	for _, s := range specs {
		if off, ok := p.Offsets[s.ID]; ok {
			s.Offset = off
		}
	}
}

// Occupancy evaluates the worst per-cell occupancy of specs using the
// offsets already present in the specs (e.g. all-zero for the naive
// baseline the ablation compares against).
func Occupancy(specs []*flows.Spec, slot sim.Time, key CellKey) (int, error) {
	if key == nil {
		key = DefaultCellKey
	}
	if slot <= 0 {
		return 0, fmt.Errorf("itp: non-positive slot %v", slot)
	}
	var ts []*flows.Spec
	for _, s := range specs {
		if s.Class != ethernet.ClassTS || s.Period <= 0 || len(s.Path) == 0 {
			continue
		}
		ts = append(ts, s)
	}
	// Hyperperiod over all TS flows, as in Compute.
	g := newGrid(ts, slot)
	var rows [][]int
	for i, s := range ts {
		rows = g.rows(rows[:0], s, key)
		g.place(rows, int64(s.Offset/slot), g.period[i])
	}
	worst := 0
	for _, row := range g.cells {
		for _, v := range row {
			if v > worst {
				worst = v
			}
		}
	}
	return worst, nil
}
