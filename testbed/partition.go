// Partitions: every network runs on the conservative parallel
// simulation layer (internal/psim), and the serial simulator is the
// one-partition case.
//
// With several partitions each gets its own engine, scratch metrics
// registry, collector, flight recorder and attribution layer, so the
// hot path stays exactly as unsynchronized as with one. Cross-partition
// trunk cables are rerouted through bounded mailboxes
// (netdev.SetRemotePost) and the partitions advance in barrier-stepped
// lookahead windows. After the run the scratch state merges back — in
// ascending partition order, which together with psim.Assign's
// ascending-ID blocks makes the merged registry byte-identical to a
// one-partition run's (the scheduler heap-depth gauge excepted:
// per-partition heaps have their own high waters; see DESIGN.md §16).
package testbed

import (
	"fmt"
	"sort"

	"github.com/tsnbuilder/tsnbuilder/internal/analyzer"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/obs"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
)

// part is one shard of a network: an engine plus the observability
// state its switches and NICs write into — the Net's own with one
// partition, scratch copies with several.
type part struct {
	engine *sim.Engine
	reg    *metrics.Registry   // nil when Options.Metrics is nil
	coll   *analyzer.Collector // the partition's receive-side stats
	flight *trace.Flight
	attr   *obs.Attribution // nil when Options.Metrics is nil
}

// mailboxCapacity is the steady-state ring size of one directed cut
// link's mailbox; bursts beyond it spill to the (never-dropping)
// overflow slice.
const mailboxCapacity = 1 << 10

// regFor returns the registry instruments of switch sw resolve
// against: its partition's. May be nil (uninstrumented).
func (n *Net) regFor(sw int) *metrics.Registry {
	return n.parts[n.assign[sw]].reg
}

// collectorFor returns the collector that receives host's deliveries:
// its partition's.
func (n *Net) collectorFor(host int) *analyzer.Collector {
	return n.parts[n.hostPart[host]].coll
}

// Partitions reports how many engines the network runs on (1 for a
// serial build).
func (n *Net) Partitions() int { return len(n.parts) }

// LookaheadWindow returns the conservative window a partitioned run
// steps by (psim.Unbounded with no cut links); 0 on serial builds.
func (n *Net) LookaheadWindow() sim.Time {
	if len(n.parts) == 1 {
		return 0
	}
	return n.runner.Window()
}

// assignDeliverPrios stamps every interface's stable global index as
// its delivery tie-break priority: switch ports in (switch, port)
// order, then NICs in sorted host order, 1-based (0 means unset).
// Same-instant delivery order is therefore interface order at every
// partition count — the property that makes the partitioned schedule
// equal the serial one (see internal/psim).
func (n *Net) assignDeliverPrios() {
	idx := uint64(0)
	for s, sw := range n.Switches {
		for p := 0; p < n.opts.Topo.PortCount(s); p++ {
			idx++
			sw.Ifc(p).SetDeliverPrio(idx)
		}
	}
	for _, h := range sortedHosts(n.opts.Topo) {
		idx++
		n.NICs[h].Ifc().SetDeliverPrio(idx)
	}
}

// sortedHosts returns the attached host IDs in ascending order
// (topology.Hosts is map-ordered).
func sortedHosts(t *topology.Topology) []int {
	hosts := append([]int(nil), t.Hosts()...)
	sort.Ints(hosts)
	return hosts
}

// validatePartitioned rejects options that would couple partitions
// outside the frame channel (shared mutable state or cross-partition
// event scheduling), each with the reason it cannot be sharded.
func validatePartitioned(opts Options) error {
	switch {
	case opts.EnableGPTP:
		return fmt.Errorf("testbed: partitioned runs require perfect clocks (gPTP sync spans do not respect the lookahead window)")
	case opts.Faults != nil:
		return fmt.Errorf("testbed: fault injection is not supported in partitioned runs (an injector event would mutate interfaces owned by other partitions)")
	case opts.EnableWatchdog:
		return fmt.Errorf("testbed: the invariant watchdog is not supported in partitioned runs (audits read every switch from one engine)")
	case opts.EnableTrace:
		return fmt.Errorf("testbed: packet tracing is not supported in partitioned runs (the recorder is shared across switches)")
	case opts.Pcap != nil:
		return fmt.Errorf("testbed: pcap capture is not supported in partitioned runs (the writer is shared across NICs)")
	}
	for _, spec := range opts.Flows {
		if spec.FRER {
			return fmt.Errorf("testbed: FRER flow %d is not supported in partitioned runs (recovery-table instruments register in flow-encounter order, which interleaves partitions)", spec.ID)
		}
	}
	return nil
}

// mergeResults folds every partition's scratch state into the shared
// view, in ascending partition order (the order that reproduces serial
// registration, see psim.Assign).
func (n *Net) mergeResults() {
	n.merged = true
	for _, p := range n.parts {
		if n.Metrics != nil {
			n.Metrics.Merge(p.reg)
		}
		n.Collector.Merge(p.coll)
		if n.Attr != nil {
			n.Attr.Merge(p.attr)
		}
	}
}
