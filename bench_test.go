// Package bench is the benchmark harness that regenerates every table
// and figure of the paper at full evaluation scale (1024 TS flows,
// 100 ms measurement windows). Each BenchmarkXxx corresponds to one
// table/figure; custom metrics report the headline numbers next to the
// usual ns/op:
//
//	go test -bench=. -benchmem
//
// The text renderings the paper prints are produced by cmd/tsnbench.
package bench

import (
	"fmt"
	"strconv"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/experiments"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/itp"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/obs"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnnic"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
	"github.com/tsnbuilder/tsnbuilder/tsnbuilder"
)

func params() experiments.Params {
	p := experiments.DefaultParams()
	if testing.Short() {
		p = experiments.ShortParams()
	}
	return p
}

// reportSeries attaches the last row's headline metrics to the bench.
func reportSeries(b *testing.B, s *experiments.Series) {
	b.Helper()
	if len(s.Rows) == 0 {
		b.Fatal("empty series")
	}
	last := s.Rows[len(s.Rows)-1]
	b.ReportMetric(last.Mean.Micros(), "mean_µs")
	b.ReportMetric(last.Jitter.Micros(), "jitter_µs")
	b.ReportMetric(100*last.LossRate, "loss_%")
}

// BenchmarkTableI regenerates Table I (queue/buffer configuration
// BRAM totals: 2304 Kb vs 1764 Kb).
func BenchmarkTableI(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		rows := experiments.TableI()
		total = rows[0].TotalKb - rows[1].TotalKb
	}
	b.ReportMetric(total, "savedKb")
}

// BenchmarkTableIII regenerates Table III (resource usage of the
// commercial vs star/linear/ring customized switches).
func BenchmarkTableIII(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		cols, err := experiments.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		reduction = cols[3].Reduction
	}
	b.ReportMetric(reduction, "ring_reduction_%")
}

// BenchmarkFig2BE regenerates Fig. 2(a): TS latency under BE
// background on the Table I Case 2 configuration.
func BenchmarkFig2BE(b *testing.B) {
	p := params()
	var s *experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = experiments.Fig2(p, "BE", 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, s)
}

// BenchmarkFig2RC regenerates Fig. 2(b): TS latency under RC
// background.
func BenchmarkFig2RC(b *testing.B) {
	p := params()
	var s *experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = experiments.Fig2(p, "RC", 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, s)
}

// BenchmarkFig7Hops regenerates Fig. 7(a): latency vs hop count.
func BenchmarkFig7Hops(b *testing.B) {
	p := params()
	var s *experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = experiments.Fig7Hops(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, s)
}

// BenchmarkFig7PktSize regenerates Fig. 7(b): latency vs packet size.
func BenchmarkFig7PktSize(b *testing.B) {
	p := params()
	var s *experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = experiments.Fig7PktSize(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, s)
}

// BenchmarkFig7Slot regenerates Fig. 7(c): latency vs slot size.
func BenchmarkFig7Slot(b *testing.B) {
	p := params()
	var s *experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = experiments.Fig7Slot(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, s)
}

// BenchmarkFig7Background regenerates Fig. 7(d): latency vs combined
// RC+BE background load.
func BenchmarkFig7Background(b *testing.B) {
	p := params()
	var s *experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = experiments.Fig7Background(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, s)
}

// BenchmarkQoSEquivalence runs the §IV.C summary claim: the same
// workload on commercial and customized resources.
func BenchmarkQoSEquivalence(b *testing.B) {
	p := params()
	var s *experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = experiments.CommercialVsCustomizedQoS(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	diff := s.Rows[0].Mean - s.Rows[1].Mean
	if diff < 0 {
		diff = -diff
	}
	b.ReportMetric(diff.Micros(), "mean_diff_µs")
}

// BenchmarkGPTPPrecision measures the Time Sync template's steady-state
// precision (§IV.A: < 50 ns).
func BenchmarkGPTPPrecision(b *testing.B) {
	var res experiments.SyncResult
	for i := 0; i < b.N; i++ {
		res = experiments.SyncPrecision(uint64(i) + 1)
	}
	b.ReportMetric(float64(res.SteadyState), "steady_ns")
}

// BenchmarkITPAblation measures the queue/buffer BRAM that Injection
// Time Planning saves versus naive zero-offset injection.
func BenchmarkITPAblation(b *testing.B) {
	p := params()
	var rows []experiments.ITPRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ITPAblation(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].QueueBufKb-rows[len(rows)-1].QueueBufKb, "savedKb")
}

// BenchmarkPlatformAblation prices the ring customization on FPGA vs
// ASIC cost models.
func BenchmarkPlatformAblation(b *testing.B) {
	var rows []experiments.PlatformRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.PlatformAblation()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].TotalKb-rows[1].TotalKb, "blockOverheadKb")
}

// BenchmarkThresholdStudy sweeps queue/buffer provisioning across the
// traffic-dependent threshold of the Table I motivation study.
func BenchmarkThresholdStudy(b *testing.B) {
	p := params()
	var rows []experiments.ThresholdRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ThresholdStudy(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the knee: the smallest zero-loss depth.
	for _, r := range rows {
		if r.TSLossRate == 0 {
			b.ReportMetric(float64(r.QueueDepth), "threshold_depth")
			break
		}
	}
}

// BenchmarkPartitionedRun measures the partitioned parallel simulator
// on the 210-switch mesh at 1/2/4/8 partitions: events/sec per
// partition count plus the 4-partition speedup over the serial engine.
// The study itself enforces parity (identical event/delivery/latency
// totals at every partition count) and fails the bench if it breaks.
// Speedup tracks available cores: on a single-core host the partition
// counts measure synchronization overhead only.
func BenchmarkPartitionedRun(b *testing.B) {
	p := params()
	var rows []experiments.ScaleRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ScaleStudy(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.EventsPerSec, fmt.Sprintf("p%d_ev/s", r.Partitions))
		if r.Partitions == 4 {
			b.ReportMetric(r.Speedup, "speedup_4p")
		}
	}
	b.ReportMetric(float64(rows[0].Events), "events")
}

// BenchmarkTASvsCQF runs the gate-mechanism ablation: synthesized
// 802.1Qbv schedule against the paper's 2-entry CQF configuration.
func BenchmarkTASvsCQF(b *testing.B) {
	p := params()
	var rows []experiments.TASRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TASvsCQF(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Mean.Micros(), "cqf_mean_µs")
	b.ReportMetric(rows[1].Mean.Micros(), "tas_mean_µs")
	b.ReportMetric(float64(rows[1].GateEntries), "tas_gate_entries")
}

// BenchmarkSMSStudy runs the buffer-architecture ablation (per-port
// pools vs a shared SMS pool).
func BenchmarkSMSStudy(b *testing.B) {
	p := params()
	var rows []experiments.SMSRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.SMSStudy(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].BufferKb-rows[1].BufferKb, "sharedSavesKb")
}

// BenchmarkDeadlineStudy sweeps slot sizes against the IEC 60802
// deadline classes.
func BenchmarkDeadlineStudy(b *testing.B) {
	p := params()
	var rows []experiments.DeadlineRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.DeadlineStudy(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rows[len(rows)-1].MissRate, "misses_at_520µs_%")
}

// BenchmarkDesyncStudy measures CQF sensitivity to clock error.
func BenchmarkDesyncStudy(b *testing.B) {
	p := params()
	var rows []experiments.DesyncRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.DesyncStudy(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := rows[0].Jitter
	for _, r := range rows {
		if r.Jitter > worst {
			worst = r.Jitter
		}
	}
	b.ReportMetric(worst.Micros(), "worst_jitter_µs")
}

// BenchmarkCBSStudy runs the credit-based-shaping ablation.
func BenchmarkCBSStudy(b *testing.B) {
	p := params()
	var rows []experiments.CBSRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.CBSStudy(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].BEP99.Micros(), "bare_be_p99_µs")
	b.ReportMetric(rows[1].BEP99.Micros(), "shaped_be_p99_µs")
}

// BenchmarkPreemptStudy measures 802.3br frame preemption on an
// ungated strict-priority port.
func BenchmarkPreemptStudy(b *testing.B) {
	p := params()
	var rows []experiments.PreemptRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.PreemptStudy(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].TSMax.Micros(), "plain_max_µs")
	b.ReportMetric(rows[1].TSMax.Micros(), "preempt_max_µs")
}

// BenchmarkRateStudy sweeps mixed-speed access links against the CQF
// slot feasibility constraint.
func BenchmarkRateStudy(b *testing.B) {
	p := params()
	var rows []experiments.RateRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RateStudy(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rows[len(rows)-1].TSLossRate, "loss_at_10Mbps_%")
}

// --- Micro-benchmarks of the substrates ---

// BenchmarkEngineEvents measures raw discrete-event throughput.
func BenchmarkEngineEvents(b *testing.B) {
	e := sim.NewEngine()
	var tick func(*sim.Engine)
	n := 0
	tick = func(en *sim.Engine) {
		n++
		if n < b.N {
			en.After(1, "tick", tick)
		}
	}
	e.After(1, "tick", tick)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// discard is a frame receiver that drops everything, so the per-layer
// benchmarks measure the layer and not a sink.
type discard struct{}

func (discard) Receive(*ethernet.Frame, *netdev.Ifc) {}

// BenchmarkLinkHop measures one netdev transmit → deliver → done cycle
// of a 64 B frame on a 1 Gbps cable. Steady state allocates only the
// receiver's header copy.
func BenchmarkLinkHop(b *testing.B) {
	e := sim.NewEngine()
	a := netdev.NewIfc(e, "a", discard{}, ethernet.Gbps)
	netdev.Connect(a, netdev.NewIfc(e, "b", discard{}, ethernet.Gbps), 100*sim.Nanosecond)
	f := &ethernet.Frame{Payload: make([]byte, 46)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Transmit(f, nil)
		e.Run()
	}
}

// BenchmarkSwitchHop measures one unicast TS frame crossing a switch:
// Packet Switch, Ingress Filter, the CQF gate pair, queue admission,
// the slot-boundary retry, Egress Sched and the egress link.
func BenchmarkSwitchHop(b *testing.B) {
	cfg := tsnswitch.Config{
		Ports: 2, QueuesPerPort: 8, QueueDepth: 8, BuffersPerPort: 96,
		UnicastSize: 64, MulticastSize: 8, ClassSize: 64, MeterSize: 16,
		GateSize: 2, CBSMapSize: 3, CBSSize: 3, SlotSize: 65 * sim.Microsecond,
		TSQueueA: 7, TSQueueB: 6, LinkRate: ethernet.Gbps,
	}
	e := sim.NewEngine()
	sw := tsnswitch.New(e, cfg)
	for p := 0; p < cfg.Ports; p++ {
		netdev.Connect(sw.Ifc(p), netdev.NewIfc(e, fmt.Sprintf("h%d", p), discard{}, ethernet.Gbps), 100*sim.Nanosecond)
	}
	if err := sw.Forward().Unicast.Add(ethernet.HostMAC(1), 1, 1); err != nil {
		b.Fatal(err)
	}
	f := &ethernet.Frame{
		Dst: ethernet.HostMAC(1), Src: ethernet.HostMAC(0), VID: 1, PCP: 7,
		EtherType: ethernet.TypeTSN, Class: ethernet.ClassTS, Payload: make([]byte, 46),
	}
	in := sw.Port(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Receive(f, nil)
		e.RunUntil(e.Now() + 2*cfg.SlotSize)
	}
	b.StopTimer()
	if st := sw.Stats(); st.TxFrames != uint64(b.N) {
		b.Fatalf("forwarded %d of %d frames", st.TxFrames, b.N)
	}
}

// BenchmarkNICInject measures one TS period of a tsnnic talker: the
// generation tick, frame injection through the class FIFO, transmit and
// delivery to a listener NIC without a collector.
func BenchmarkNICInject(b *testing.B) {
	e := sim.NewEngine()
	gen := tsnnic.New(e, 1, ethernet.Gbps, nil)
	rcv := tsnnic.New(e, 2, ethernet.Gbps, nil)
	netdev.Connect(gen.Ifc(), rcv.Ifc(), 100*sim.Nanosecond)
	spec := &flows.Spec{
		ID: 1, Class: ethernet.ClassTS, SrcHost: 1, DstHost: 2,
		VID: 1, PCP: 7, WireSize: 64, Period: 10 * sim.Microsecond,
	}
	gen.StartFlow(spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + spec.Period)
	}
}

// BenchmarkFrameCodec measures the zero-copy codec hot path — the one
// the dataplane uses: AppendMarshal into a recycled buffer, then
// UnmarshalNoCopy aliasing it. Steady state allocates only the decoded
// Frame header; no byte buffers.
func BenchmarkFrameCodec(b *testing.B) {
	f := &ethernet.Frame{
		Dst: ethernet.HostMAC(1), Src: ethernet.HostMAC(2),
		VID: 100, PCP: 7, EtherType: ethernet.TypeTSN,
		Payload: make([]byte, 1000), FlowID: 1, Seq: 2, Class: ethernet.ClassTS,
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = f.AppendMarshal(buf[:0])
		if _, err := ethernet.UnmarshalNoCopy(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameCodecCopy measures the copying Marshal/Unmarshal round
// trip — the convenience API that owns its buffers.
func BenchmarkFrameCodecCopy(b *testing.B) {
	f := &ethernet.Frame{
		Dst: ethernet.HostMAC(1), Src: ethernet.HostMAC(2),
		VID: 100, PCP: 7, EtherType: ethernet.TypeTSN,
		Payload: make([]byte, 1000), FlowID: 1, Seq: 2, Class: ethernet.ClassTS,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := f.Marshal()
		if _, err := ethernet.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkITPCompute measures planning time for the paper's 1024-flow
// workload.
func BenchmarkITPCompute(b *testing.B) {
	specs := make([]*flows.Spec, 1024)
	for i := range specs {
		path := make([]int, 1+i%4)
		for h := range path {
			path[h] = (i + h) % 6
		}
		specs[i] = &flows.Spec{
			ID: uint32(i + 1), Class: ethernet.ClassTS, WireSize: 64,
			Period: 10 * sim.Millisecond, Path: path,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := itp.Compute(specs, 65*sim.Microsecond, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeriveAndBuild measures the full customization path: derive
// parameters from a 1024-flow scenario and build the design.
func BenchmarkDeriveAndBuild(b *testing.B) {
	topo := tsnbuilder.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
	}
	specs := tsnbuilder.GenerateTS(tsnbuilder.TSParams{
		Count: 1024, Period: 10 * tsnbuilder.Millisecond, WireSize: 64, VID: 1,
		Hosts: func(i int) (int, int) { return 100 + i%6, 100 + (i+2)%6 },
		Seed:  1,
	})
	if err := tsnbuilder.BindPaths(topo, specs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		der, err := tsnbuilder.DeriveConfig(tsnbuilder.Scenario{Topo: topo, Flows: specs})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tsnbuilder.BuilderFor(der.Config, nil).Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBindPathsMesh measures path binding on a fresh copy of the
// mesh-p2 scale topology: 210 switches and 8192 4-hop TS flows (64
// switches and 2048 flows under -short). Each iteration pays the
// per-source BFS trees, as one build does.
func BenchmarkBindPathsMesh(b *testing.B) {
	switches, count := 210, 8192
	if testing.Short() {
		switches, count = 64, 2048
	}
	mesh := func() *topology.Topology {
		topo := topology.MeshSquarish(switches)
		for sw := 0; sw < topo.N; sw++ {
			topo.AttachHost(100+sw, sw)
		}
		return topo
	}
	specs := flows.GenerateTS(flows.TSParams{
		Count: count, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
		Hosts: func(i int) (int, int) { return 100 + i%switches, 100 + (i+3)%switches },
		Seed:  1,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		topo := mesh()
		b.StartTimer()
		if err := core.BindPaths(topo, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryResolve measures registering one switch's
// instrument set (4 ports × 8 queues, the label sets tsnswitch
// resolves at construction) in a fresh registry: the per-switch share
// of a build's telemetry set-up.
func BenchmarkRegistryResolve(b *testing.B) {
	const ports, queues = 4, 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg := metrics.New()
		swl := metrics.L("switch", "7")
		reg.Counter(tsnswitch.MetricRxFrames, swl)
		reg.Counter(tsnswitch.MetricTxFrames, swl)
		for _, r := range tsnswitch.DropReasons() {
			reg.Counter(tsnswitch.MetricDrops, swl, metrics.L("reason", r.String()))
		}
		reg.Histogram(tsnswitch.MetricResidence, tsnswitch.ResidenceBounds, swl)
		reg.Counter(tsnswitch.MetricPreemption, swl)
		reg.Counter(tsnswitch.MetricMeterPass, swl)
		reg.Counter(tsnswitch.MetricMeterDrop, swl)
		for p := 0; p < ports; p++ {
			pl := metrics.L("port", strconv.Itoa(p))
			reg.Gauge(tsnswitch.MetricPoolOcc, swl, pl)
			reg.Gauge(tsnswitch.MetricPoolHW, swl, pl)
			reg.Counter(tsnswitch.MetricPoolFails, swl, pl)
			for q := 0; q < queues; q++ {
				ql := metrics.L("queue", strconv.Itoa(q))
				reg.Counter(tsnswitch.MetricEnqueues, swl, pl, ql)
				reg.Gauge(tsnswitch.MetricQueueHW, swl, pl, ql)
			}
			reg.Counter(tsnswitch.MetricRollovers, swl, pl, metrics.L("dir", "in"))
			reg.Counter(tsnswitch.MetricRollovers, swl, pl, metrics.L("dir", "out"))
		}
	}
}

// BenchmarkFlightRecord measures the always-on flight recorder's
// per-event cost — it rides every switch emit, so it must stay
// allocation-free.
func BenchmarkFlightRecord(b *testing.B) {
	fl := trace.NewFlight(1 << 16)
	ev := trace.Event{At: 1, Kind: trace.KindEnqueue, FlowID: 7, Seq: 3, Switch: 1, Port: 2, Queue: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.Record(ev)
	}
}

// BenchmarkAttributionObserve measures the per-delivery latency
// attribution in steady state (flow aggregate already exists, no miss):
// a mutex pair, a map hit and six histogram writes, zero allocations.
func BenchmarkAttributionObserve(b *testing.B) {
	reg := metrics.New()
	a := obs.NewAttribution(reg, trace.NewFlight(1<<10))
	f := &ethernet.Frame{FlowID: 5, Seq: 1, Class: ethernet.ClassTS, SentAt: 1000}
	f.Span.Begin(1000)
	f.Span.Claim(300, 100)
	f.Span.OnDeliver(2000, 100, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ObserveLatency(f, 2000, 1000, false)
	}
}

// BenchmarkSpanOps measures the per-hop span bookkeeping a frame pays
// as it crosses the network.
func BenchmarkSpanOps(b *testing.B) {
	var s ethernet.Span
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Begin(100)
		s.Claim(10, 5)
		s.OnDeliver(400, 50, 100)
	}
}
