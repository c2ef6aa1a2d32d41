package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	tsnmetrics "github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// batchSpec is one batch workload: a network built from Params and run
// for a fixed simulated duration per iteration.
type batchSpec struct {
	params     workload.Params
	cable      sim.Time
	partitions int
	simDur     sim.Time
}

// runRingBE is the paper's demo network at Fig. 2(a) scale: a 6-switch
// ring, 1024 TS flows of 64 B over 3 hops at the 65 µs CQF slot, and
// saturating 800 Mbps BE background per injector, serial engine.
func runRingBE(b *bench) error {
	s := batchSpec{
		params: workload.Params{Topology: "ring", Switches: 6, TSFlows: 1024, Hops: 3,
			WireSize: 64, SlotUs: 65, BEMbps: 800, Seed: b.seed},
		simDur: 250 * sim.Millisecond,
	}
	if tiny {
		s.params.TSFlows, s.simDur = 64, 5*sim.Millisecond
	}
	return runBatch(b, s)
}

// runMeshP2 is the E-SCALE study as a workload: a 210-switch mesh,
// 8192 TS flows over 4 hops, 30 µs cables, TS traffic only, two
// partitions.
func runMeshP2(b *bench) error {
	s := batchSpec{
		params: workload.Params{Topology: "mesh", Switches: 210, TSFlows: 8192, Hops: 4,
			WireSize: 64, SlotUs: 65, Seed: b.seed},
		cable:      30 * sim.Microsecond,
		partitions: 2,
		simDur:     50 * sim.Millisecond,
	}
	if tiny {
		s.params.Switches, s.params.TSFlows, s.simDur = 16, 256, 5*sim.Millisecond
	}
	return runBatch(b, s)
}

// batchFacts are the exact simulated outputs of one iteration; every
// iteration of one seed must reproduce them.
type batchFacts struct {
	events, delivered, sent, drops uint64
	tsSent, tsLost, tsMisses       uint64
	tsMaxNs                        int64
}

// rtSample reads the Go runtime counters the per-frame cost metrics
// difference across Net.Run.
type rtSample struct{ allocs, bytes, gcCPU, totalCPU, idleCPU float64 }

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	v := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		}
		return 0
	}
	return rtSample{v(0), v(1), v(2), v(3), v(4)}
}

// runBatch repeats build-then-run iterations until the budget is spent
// (at least one) and reports medians over iterations.
func runBatch(b *bench, s batchSpec) error {
	ctx := context.Background()
	deadline := time.Now().Add(b.budget)
	var (
		setup, wlTimes, tbTimes, fps, runUs []float64
		first                               *batchFacts
		rt                                  rtSample
		delivered                           float64
		net                                 *testbed.Net
		reg                                 *tsnmetrics.Registry
		w                                   *workload.Built
	)
	for it := 0; it == 0 || time.Now().Before(deadline); it++ {
		// Collect the previous iteration's network before timing, so no
		// iteration pays for its predecessor's garbage.
		runtime.GC()
		root := b.tr.begin(0, "iteration")
		var err error
		b.tr.do(ctx, "setup", func(context.Context) {
			t0 := time.Now()
			sp := b.tr.begin(root, "workload.Build")
			w, err = workload.Build(s.params)
			b.tr.end(sp, nil)
			if err != nil {
				return
			}
			t1 := time.Now()
			sp = b.tr.begin(root, "testbed.Build")
			reg = tsnmetrics.New()
			net, err = testbed.Build(testbed.Options{
				Design: w.Design, Topo: w.Topo, Flows: w.Specs, Metrics: reg,
				Seed: s.params.Seed, CableDelay: s.cable, Partitions: s.partitions,
			})
			b.tr.end(sp, nil)
			t2 := time.Now()
			wlTimes = append(wlTimes, t1.Sub(t0).Seconds())
			tbTimes = append(tbTimes, t2.Sub(t1).Seconds())
			setup = append(setup, t2.Sub(t0).Seconds())
		})
		if err != nil {
			return err
		}

		sp := b.tr.begin(root, "Net.Run")
		r0 := readRuntime()
		t0 := time.Now()
		b.tr.do(ctx, "run", func(context.Context) { net.Run(0, s.simDur) })
		host := time.Since(t0)
		r1 := readRuntime()
		f := factsOf(net, reg)
		b.tr.end(sp, map[string]float64{"events": float64(f.events), "delivered": float64(f.delivered)})
		b.tr.end(root, nil)

		rt.allocs += r1.allocs - r0.allocs
		rt.bytes += r1.bytes - r0.bytes
		rt.gcCPU += r1.gcCPU - r0.gcCPU
		rt.totalCPU += r1.totalCPU - r0.totalCPU
		rt.idleCPU += r1.idleCPU - r0.idleCPU
		delivered += float64(f.delivered)
		fps = append(fps, float64(f.delivered)/host.Seconds())
		runUs = append(runUs, float64(host.Microseconds()))

		b.attempted += f.tsSent
		b.failed += f.tsLost + f.tsMisses
		checkBatch(b, it, net, f)
		if first == nil {
			first = &f
			fmt.Fprintf(b.log, "sim: events=%d delivered=%d sent=%d drops=%d ts_sent=%d ts_lost=%d ts_deadline_misses=%d ts_max_latency_ns=%d\n",
				f.events, f.delivered, f.sent, f.drops, f.tsSent, f.tsLost, f.tsMisses, f.tsMaxNs)
		} else {
			b.check(f == *first, "iteration %d diverged from iteration 0 on the same seed: %+v vs %+v", it, f, *first)
		}
	}
	fmt.Fprintf(b.log, "batch: %d iterations, each identical to the first\n", len(fps))

	b.e2e["ops_per_s"] = median(fps)
	b.e2e["setup_s"] = median(setup)
	if b.tr == nil {
		return nil
	}

	// Per-layer counts come from the last iteration (every iteration
	// reproduces them); host times are medians over iterations.
	l := b.layer
	l["sim.events"] = float64(first.events)
	l["sim.events_per_frame"] = float64(first.events) / float64(first.delivered)
	l["sim.heap_high_water"] = float64(reg.GaugeValue("tsn_sim_heap_depth_high_water"))
	var netdevTx, nicTx uint64
	for sw, swi := range net.Switches {
		for p := 0; p < w.Topo.PortCount(sw); p++ {
			tx, _, _ := swi.Ifc(p).Counters()
			netdevTx += tx
		}
	}
	for _, nic := range net.NICs {
		tx, _, _ := nic.Ifc().Counters()
		nicTx += tx
	}
	l["netdev.tx_frames"] = float64(netdevTx + nicTx)
	l["tsnnic.tx_frames"] = float64(nicTx)
	st := net.SwitchStats()
	l["tsnswitch.rx_frames"] = float64(st.RxFrames)
	l["tsnswitch.drops"] = float64(first.drops)
	l["tsnswitch.queue_high_water"] = float64(net.MaxQueueHighWater())
	l["analyzer.records"] = float64(first.delivered)
	l["runtime.allocs_per_frame"] = rt.allocs / delivered
	l["runtime.bytes_per_frame"] = rt.bytes / delivered
	if busy := rt.totalCPU - rt.idleCPU; busy > 0 {
		l["runtime.gc_cpu_share"] = rt.gcCPU / busy
	}
	if win := net.LookaheadWindow(); win > 0 {
		windows := float64(psimWindows(0, runEnd(0, s.simDur, w.Design.Config.SlotSize), win))
		l["psim.window_us"] = win.Micros()
		l["psim.windows"] = windows
		l["psim.host_us_per_window"] = median(runUs) / windows
	}
	l["setup.workload_s"] = median(wlTimes)
	l["setup.testbed_s"] = median(tbTimes)
	return nil
}

// No public counter reports the windows a partitioned run stepped
// through, so psim.windows is computed from two rules of other
// packages. TestPsimWindowRules checks both against real runs, so a
// change to either fails the smoke test instead of skewing the metric.

// runEnd is the simulated instant Net.Run(0, simDur) stops at, for a
// network built at start: the flows stop after simDur and the run
// drains for 4 slots plus 1 ms (testbed.Net.Run and runPartitioned).
func runEnd(start, simDur, slot sim.Time) sim.Time {
	return start + simDur + 4*slot + sim.Millisecond
}

// psimWindows is how many windows psim.Runner.RunUntil(end) takes
// from start: full windows while at least one window remains, then
// one final window up to end inclusive.
func psimWindows(start, end, win sim.Time) int {
	return int((end-start)/win) + 1
}

func factsOf(net *testbed.Net, reg *tsnmetrics.Registry) batchFacts {
	var sent uint64
	for _, c := range net.SentCounts() {
		sent += c
	}
	ts := net.Summary(ethernet.ClassTS)
	return batchFacts{
		events:    reg.CounterValue("tsn_sim_events_total"),
		delivered: reg.SumCounter("tsn_flows_delivered_total"),
		sent:      sent,
		drops:     reg.SumCounter("tsn_switch_drops_total"),
		tsSent:    ts.Sent,
		tsLost:    ts.Lost,
		tsMisses:  ts.DeadlineMisses,
		tsMaxNs:   int64(ts.MaxLat),
	}
}

// checkBatch applies the batch correctness checks: zero TS loss at the
// derived sizes, frame conservation and no leaked buffers.
func checkBatch(b *bench, it int, net *testbed.Net, f batchFacts) {
	b.check(f.tsLost == 0, "iteration %d: %d TS frames lost at the derived sizes", it, f.tsLost)
	b.check(f.tsMisses == 0, "iteration %d: %d TS deadline misses", it, f.tsMisses)
	b.check(f.sent == f.delivered+f.drops,
		"iteration %d: frame conservation: sent %d != delivered %d + switch drops %d", it, f.sent, f.delivered, f.drops)
	b.check(f.tsSent > 0 && f.delivered > 0, "iteration %d: no traffic delivered", it)
	if err := net.CheckBufferLeaks(); err != nil {
		b.check(false, "iteration %d: %v", it, err)
	}
}

// foldBatch folds the traced phase's profile: self shares over Net.Run,
// set-up shares over workload.Build + testbed.Build.
func foldBatch(b *bench, samples []sample) {
	run := map[string]bool{"run": true}
	foldShares(b, samples, run)
	b.layer["runtime.malloc_share"] = stackShare(samples, run, "runtime.mallocgc")
	b.layer["runtime.sched_share"] = stackShare(samples, run, schedFuncs...)
}

// schedFuncs are the Go scheduler entry points; a sample under any of
// them is time spent parking, waking or switching goroutines.
var schedFuncs = []string{
	"runtime.schedule", "runtime.gopark", "runtime.goready",
	"runtime.wakep", "runtime.mcall", "runtime.notewakeup",
}

// foldShares writes <pkg>.self_share over the main spans and
// <pkg>.setup_share over the "setup" span.
func foldShares(b *bench, samples []sample, main map[string]bool) {
	self := selfShares(samples, main, selfPkgs)
	for p, v := range self {
		b.layer[p+".self_share"] = v
	}
	setup := selfShares(samples, map[string]bool{"setup": true}, setupPkgs)
	for p, v := range setup {
		b.layer[p+".setup_share"] = v
	}
}
