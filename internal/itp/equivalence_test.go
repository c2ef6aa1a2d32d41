package itp

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// refCompute is the reference greedy: one cell-map lookup per hop per
// candidate offset, offsets evaluated one at a time. Compute must
// reproduce its plans exactly.
func refCompute(specs []*flows.Spec, slot sim.Time, key CellKey) (*Plan, error) {
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
	periodSlots := make(map[uint32]int64, len(ts))
	var hyper int64 = 1
	for _, s := range ts {
		p := int64(s.Period / slot)
		if p < 1 {
			p = 1
		}
		periodSlots[s.ID] = p
		if hyper != 0 {
			hyper = lcm(hyper, p)
		}
	}
	if hyper == 0 {
		for _, p := range periodSlots {
			if p > hyper {
				hyper = p
			}
		}
	}
	order := append([]*flows.Spec(nil), ts...)
	sort.SliceStable(order, func(i, j int) bool {
		pi, pj := periodSlots[order[i].ID], periodSlots[order[j].ID]
		if pi != pj {
			return pi > pj
		}
		return order[i].ID < order[j].ID
	})
	grid := make(map[string][]int)
	cells := func(s *flows.Spec) []string {
		out := make([]string, len(s.Path))
		for h := range s.Path {
			out[h] = key(s, h)
		}
		return out
	}
	for _, s := range order {
		p := periodSlots[s.ID]
		reps := hyper / p
		ck := cells(s)
		for _, c := range ck {
			if grid[c] == nil {
				grid[c] = make([]int, hyper)
			}
		}
		bestOffset, bestWorst, bestSum := int64(0), int(1<<30), int(1<<30)
		for o := int64(0); o < p; o++ {
			worst, sum := 0, 0
			for h, c := range ck {
				row := grid[c]
				for r := int64(0); r < reps; r++ {
					idx := (o + int64(h) + r*p) % hyper
					v := row[idx] + 1
					sum += v
					if v > worst {
						worst = v
					}
				}
			}
			if worst < bestWorst || (worst == bestWorst && sum < bestSum) {
				bestOffset, bestWorst, bestSum = o, worst, sum
			}
		}
		for h, c := range ck {
			row := grid[c]
			for r := int64(0); r < reps; r++ {
				row[(bestOffset+int64(h)+r*p)%hyper]++
			}
		}
		plan.Offsets[s.ID] = sim.Time(bestOffset) * slot
	}
	for c, row := range grid {
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

// refOccupancy is the reference evaluation Occupancy must match.
func refOccupancy(specs []*flows.Spec, slot sim.Time, key CellKey) int {
	if key == nil {
		key = DefaultCellKey
	}
	var hyper int64 = 1
	periodSlots := make(map[uint32]int64)
	var ts []*flows.Spec
	for _, s := range specs {
		if s.Class != ethernet.ClassTS || s.Period <= 0 || len(s.Path) == 0 {
			continue
		}
		p := int64(s.Period / slot)
		if p < 1 {
			p = 1
		}
		ts = append(ts, s)
		periodSlots[s.ID] = p
		if hyper != 0 {
			hyper = lcm(hyper, p)
		}
	}
	if hyper == 0 {
		for _, p := range periodSlots {
			if p > hyper {
				hyper = p
			}
		}
	}
	grid := make(map[string][]int)
	worst := 0
	for _, s := range ts {
		p := periodSlots[s.ID]
		o := int64(s.Offset / slot)
		for h := range s.Path {
			c := key(s, h)
			if grid[c] == nil {
				grid[c] = make([]int, hyper)
			}
			for r := int64(0); r < hyper/p; r++ {
				idx := (o + int64(h) + r*p) % hyper
				grid[c][idx]++
				if grid[c][idx] > worst {
					worst = grid[c][idx]
				}
			}
		}
	}
	return worst
}

// portKey is a port-aware cell key like the one core.DeriveConfig
// supplies: the same switch toward different next hops is two cells.
func portKey(s *flows.Spec, hop int) string {
	next := -1
	if hop+1 < len(s.Path) {
		next = s.Path[hop+1]
	}
	return fmt.Sprintf("sw%d->%d", s.Path[hop], next)
}

// randomFlowSet draws a TS flow set that exercises every branch of the
// planner: mixed periods (several repetitions per hyperperiod),
// periods whose lcm exceeds maxHyperperiod (the fold onto the largest
// period), periods that are not whole multiples of the slot, periods
// of one slot (paths longer than the hyperperiod), and 1–6 hop paths
// over a handful of switches so cells are shared. Non-TS flows and
// IDs out of order are mixed in.
func randomFlowSet(rng *rand.Rand, slot sim.Time) []*flows.Spec {
	var periods []int64
	switch rng.Intn(3) {
	case 0: // small lcm: several repetitions per hyperperiod
		periods = []int64{1, 2, 3, 4, 6, 8, 12}
	case 1: // pairwise-coprime: lcm > maxHyperperiod, the grid folds
		periods = []int64{251, 257, 263, 269}
	default: // a mix of both
		periods = []int64{2, 3, 131, 137}
	}
	periods = periods[:1+rng.Intn(len(periods))]
	switches := 2 + rng.Intn(6)
	n := 1 + rng.Intn(32)
	specs := make([]*flows.Spec, 0, n)
	for _, id := range rng.Perm(n) {
		p := sim.Time(periods[rng.Intn(len(periods))]) * slot
		if rng.Intn(3) == 0 {
			p += sim.Time(rng.Int63n(int64(slot))) // not a whole number of slots
		}
		path := make([]int, 1+rng.Intn(6))
		for h := range path {
			path[h] = rng.Intn(switches)
		}
		class := ethernet.ClassTS
		if rng.Intn(10) == 0 {
			class = ethernet.ClassBE
		}
		specs = append(specs, &flows.Spec{
			ID: uint32(id + 1), Class: class, WireSize: 64, Period: p, Path: path,
		})
	}
	return specs
}

func TestComputeMatchesReferenceModel(t *testing.T) {
	const slot = 10 * sim.Microsecond
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		specs := randomFlowSet(rng, slot)
		var key CellKey
		if rng.Intn(2) == 0 {
			key = portKey
		}
		want, err := refCompute(specs, slot, key)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		got, err := Compute(specs, slot, key)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: plan differs from reference:\ngot  %+v\nwant %+v", seed, got, want)
			return false
		}

		// Occupancy: at random offsets (some beyond the period, some
		// not slot-aligned), then at the planned ones.
		for _, s := range specs {
			s.Offset = sim.Time(rng.Int63n(int64(3 * s.Period)))
		}
		if got, want := mustOccupancy(t, specs, slot, key), refOccupancy(specs, slot, key); got != want {
			t.Errorf("seed %d: random-offset Occupancy = %d, reference %d", seed, got, want)
			return false
		}
		got.Apply(specs)
		occ := mustOccupancy(t, specs, slot, key)
		if occ != refOccupancy(specs, slot, key) || occ != got.MaxOccupancy {
			t.Errorf("seed %d: planned Occupancy = %d, reference %d, plan %d",
				seed, occ, refOccupancy(specs, slot, key), got.MaxOccupancy)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func mustOccupancy(t *testing.T, specs []*flows.Spec, slot sim.Time, key CellKey) int {
	t.Helper()
	occ, err := Occupancy(specs, slot, key)
	if err != nil {
		t.Fatal(err)
	}
	return occ
}
