package core

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/frer"
	"github.com/tsnbuilder/tsnbuilder/internal/itp"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// Scenario is the application-level input of the top-down flow: the
// pre-determined topology and flow features of §II.A from which the
// resource parameters are computed.
type Scenario struct {
	Topo *topology.Topology
	// Flows must have Path filled (use BindPaths).
	Flows []*flows.Spec
	// SlotSize is the CQF slot; zero selects the paper's 65 µs.
	SlotSize sim.Time
	// RCQueues is the number of queues reserved for RC traffic (the
	// paper uses 3).
	RCQueues int
	// QueueNum is the queues per port (the paper uses 8).
	QueueNum int
	// LinkRate defaults to 1 Gbps.
	LinkRate ethernet.Rate
	// AccessRate, when positive, is the slowest egress rate a TS flow
	// crosses (field-device links). DeriveConfig then checks the slot
	// against the drain-feasibility constraint and widens it if needed.
	AccessRate ethernet.Rate
	// DepthMargin is the multiplicative headroom applied to the ITP
	// occupancy bound, in percent. Zero selects 50, which is how the
	// paper's planned occupancy of 8 becomes the provisioned depth 12.
	DepthMargin int
}

func (sc *Scenario) defaults() {
	if sc.SlotSize == 0 {
		sc.SlotSize = 65 * sim.Microsecond
	}
	if sc.RCQueues == 0 {
		sc.RCQueues = 3
	}
	if sc.QueueNum == 0 {
		sc.QueueNum = 8
	}
	if sc.LinkRate == 0 {
		sc.LinkRate = ethernet.Gbps
	}
	if sc.DepthMargin == 0 {
		sc.DepthMargin = 50
	}
}

// BindPaths fills each flow's Path from the topology and the hosts'
// attachment points. FRER flows get two link-disjoint member-stream
// paths (Path + AltPath), which requires a topology that can provide
// them (a bidirectional ring).
func BindPaths(topo *topology.Topology, specs []*flows.Spec) error {
	for _, s := range specs {
		if s.FRER {
			pri, alt, err := topo.DisjointHostPaths(s.SrcHost, s.DstHost)
			if err != nil {
				return fmt.Errorf("core: FRER flow %d: %w", s.ID, err)
			}
			s.Path, s.AltPath = pri, alt
			continue
		}
		p, err := topo.HostPath(s.SrcHost, s.DstHost)
		if err != nil {
			return fmt.Errorf("core: flow %d: %w", s.ID, err)
		}
		s.Path = p
	}
	return nil
}

// Derivation is DeriveConfig's result: the configuration plus the ITP
// plan that justified the queue depth.
type Derivation struct {
	Config Config
	Plan   *itp.Plan
}

// DeriveConfig computes the resource parameters from the scenario,
// following the §III.C guidelines:
//
//  1. switch/classification/meter tables sized to the flow count;
//  2. gate tables sized to the slots per scheduling cycle (2 for CQF);
//  3. CBS tables sized to the RC queue count;
//  4. queue depth from the ITP occupancy bound (plus margin), buffers
//     = depth × queue count;
//  5. enabled ports from the topology.
func DeriveConfig(sc Scenario) (*Derivation, error) {
	sc.defaults()
	if sc.Topo == nil {
		return nil, fmt.Errorf("core: scenario without topology")
	}
	if len(sc.Flows) == 0 {
		return nil, fmt.Errorf("core: scenario without flows")
	}
	nFlows, nFRER := 0, 0
	for _, s := range sc.Flows {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if len(s.Path) == 0 {
			return nil, fmt.Errorf("core: flow %d has no path (call BindPaths)", s.ID)
		}
		nFlows++
		if s.FRER {
			if len(s.AltPath) == 0 {
				return nil, fmt.Errorf("core: FRER flow %d has no alternate path (call BindPaths)", s.ID)
			}
			nFRER++
		}
	}

	// Guideline (4): plan injection times, then provision depth with
	// margin. The cell key is port-aware: flows through the same
	// switch toward different next hops use different egress queues.
	key := func(s *flows.Spec, hop int) string {
		next := -1
		if hop+1 < len(s.Path) {
			next = s.Path[hop+1]
		} else {
			next = -(s.DstHost + 2) // egress to the destination host
		}
		return fmt.Sprintf("sw%d->%d", s.Path[hop], next)
	}
	plan, err := itp.Compute(sc.Flows, sc.SlotSize, key)
	if err != nil {
		return nil, err
	}
	// Mixed-speed networks: widen the slot until one slot's frames can
	// drain through the slowest egress ("a packet received at a time
	// slot must be sent at the next time slot"). Widening the slot can
	// change the plan, so iterate to a fixed point.
	if sc.AccessRate > 0 && sc.AccessRate < sc.LinkRate {
		maxWire := 0
		for _, s := range sc.Flows {
			if s.Class == ethernet.ClassTS && s.WireSize > maxWire {
				maxWire = s.WireSize
			}
		}
		issues := CheckSlotFeasibility(plan, sc.AccessRate, maxWire)
		for iter := 0; iter < 4 && len(issues) > 0; iter++ {
			wider := MinFeasibleSlot(plan.MaxOccupancy, sc.AccessRate, maxWire, 5*sim.Microsecond)
			if wider <= sc.SlotSize {
				wider = sc.SlotSize + 5*sim.Microsecond
			}
			sc.SlotSize = wider
			if plan, err = itp.Compute(sc.Flows, sc.SlotSize, key); err != nil {
				return nil, err
			}
			issues = CheckSlotFeasibility(plan, sc.AccessRate, maxWire)
		}
		if len(issues) > 0 {
			return nil, fmt.Errorf("core: no feasible slot for access rate %d bps (worst cell: %v)",
				sc.AccessRate, issues[0])
		}
	}
	depth := plan.MaxOccupancy
	if depth < 1 {
		depth = 1
	}
	depth += (depth*sc.DepthMargin + 99) / 100

	// Each FRER flow consumes a second forwarding/classification entry
	// (its member stream on AltVID) and one sequence-recovery entry.
	// The ITP plan covers the primary paths; the replicas ride the same
	// injection offsets, and the depth margin absorbs their extra
	// occupancy on the disjoint alternate paths.
	nEntries := nFlows + nFRER
	cfg := Config{
		UnicastSize:   nEntries, // guideline (1): one entry per flow worst case
		MulticastSize: 0,        // multicast split into unicast flows (§IV.B)
		ClassSize:     nEntries,
		MeterSize:     nFlows,
		GateSize:      2, // CQF: scheduling cycle = 2 slots
		QueueNum:      sc.QueueNum,
		PortNum:       sc.Topo.EnabledTSNPorts,
		CBSMapSize:    sc.RCQueues,
		CBSSize:       sc.RCQueues,
		QueueDepth:    depth,
		BufferNum:     depth * sc.QueueNum, // overall buffers = depth × all queues
		SlotSize:      sc.SlotSize,
		LinkRate:      sc.LinkRate,
	}
	if nFRER > 0 {
		cfg.FRERSize = nFRER
		cfg.FRERHistory = frer.DefaultHistory
	}
	return &Derivation{Config: cfg, Plan: plan}, nil
}

// BuilderFor returns a Builder pre-loaded with cfg through the
// customization APIs, ready to Build for the given platform.
func BuilderFor(cfg Config, platform Platform) *Builder {
	b := NewBuilder(platform)
	b.SetSwitchTbl(cfg.UnicastSize, cfg.MulticastSize).
		SetClassTbl(cfg.ClassSize).
		SetMeterTbl(cfg.MeterSize).
		SetGateTbl(cfg.GateSize, cfg.QueueNum, cfg.PortNum).
		SetCBSTbl(cfg.CBSMapSize, cfg.CBSSize, cfg.PortNum).
		SetQueues(cfg.QueueDepth, cfg.QueueNum, cfg.PortNum).
		SetBuffers(cfg.BufferNum, cfg.PortNum).
		SetTiming(cfg.SlotSize, cfg.LinkRate)
	if cfg.FRERSize > 0 {
		b.SetFRERTbl(cfg.FRERSize, cfg.FRERHistory)
	}
	return b
}

// CommercialProfile returns the BCM53154 resource configuration the
// paper uses as its baseline (§IV.B): 4 TSN ports, 16K MAC entries, 1K
// classification entries, 512 meters, 8 queues/shapers per port with
// depth 16, and 128 buffers per port. Parameters the datasheet leaves
// open are set as in the customized switches, exactly as the paper
// does.
func CommercialProfile() Config {
	return Config{
		UnicastSize:   16 * 1024,
		MulticastSize: 0,
		ClassSize:     1024,
		MeterSize:     512,
		GateSize:      2,
		QueueNum:      8,
		PortNum:       4,
		CBSMapSize:    8,
		CBSSize:       8,
		QueueDepth:    16,
		BufferNum:     128,
		SlotSize:      65 * sim.Microsecond,
		LinkRate:      ethernet.Gbps,
	}
}

// PaperCustomizedConfig returns the customized column of Table III for
// the given enabled-port count (3 = star, 2 = linear, 1 = ring),
// reproducing the paper's exact parameters for 1024 flows.
func PaperCustomizedConfig(ports int) Config {
	return Config{
		UnicastSize:   1024,
		MulticastSize: 0,
		ClassSize:     1024,
		MeterSize:     1024,
		GateSize:      2,
		QueueNum:      8,
		PortNum:       ports,
		CBSMapSize:    3,
		CBSSize:       3,
		QueueDepth:    12,
		BufferNum:     96,
		SlotSize:      65 * sim.Microsecond,
		LinkRate:      ethernet.Gbps,
	}
}
