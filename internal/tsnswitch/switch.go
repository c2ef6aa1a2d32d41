package tsnswitch

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/buffering"
	"github.com/tsnbuilder/tsnbuilder/internal/clock"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/filter"
	"github.com/tsnbuilder/tsnbuilder/internal/forward"
	"github.com/tsnbuilder/tsnbuilder/internal/gate"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/shaper"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
)

// Switch is one TSN switch instance.
type Switch struct {
	cfg    Config
	engine *sim.Engine
	// Clock is the local synchronized clock driving Gate Ctrl. It
	// defaults to a perfect clock; the testbed replaces it with the
	// gPTP-disciplined one.
	Clock *clock.Clock

	fwd   *forward.Engine
	flt   *filter.Engine
	ports []*Port
	// outPorts is the Resolve buffer ingress reuses for every frame.
	outPorts []int

	// Tracer, when non-nil, receives per-packet dataplane events.
	Tracer *trace.Recorder
	// Flight, when non-nil, receives the same events into the always-on
	// ring-buffer flight recorder (last-N history for post-mortem dumps).
	Flight *trace.Flight

	stats Stats
	// degrade is the graceful-degradation level the watchdog drives;
	// enqueue sheds lower classes at admission while it is raised.
	degrade DegradeLevel
	// Telemetry: handles resolved once at construction (zero values are
	// no-ops), plus the registry for re-binding replaced schedules.
	met     swInstruments
	metrics *metrics.Registry
}

// emit records a trace event if tracing or the flight recorder is
// enabled.
func (sw *Switch) emit(kind trace.Kind, port, queue int, f *ethernet.Frame, detail string) {
	if sw.Tracer == nil && sw.Flight == nil {
		return
	}
	ev := trace.Event{
		At: sw.engine.Now(), Kind: kind,
		Switch: sw.cfg.ID, Port: port, Queue: queue,
		FlowID: f.FlowID, Seq: f.Seq, Detail: detail,
	}
	sw.Flight.Record(ev)
	sw.Tracer.Record(ev)
}

// Port is one enabled TSN port with its exclusive queue set, buffer
// pool, gate tables and CBS bank (Fig. 4).
type Port struct {
	sw  *Switch
	id  int
	ifc *netdev.Ifc

	queues []*buffering.Queue
	pool   *buffering.Pool
	inGCL  gate.Schedule
	outGCL gate.Schedule
	bank   *shaper.Bank

	// metEnq has one admitted-frames counter per queue; always sized
	// len(queues) so the enqueue path indexes it unconditionally.
	metEnq []metrics.Counter

	// shapeBlockedAt[q] is the engine instant the egress scheduler first
	// found queue q blocked solely by CBS credit (gate open, frames
	// waiting); zero when not blocked. Consumed — and clamped against
	// the head frame's actual wait — when the queue next pops, to
	// attribute shaper hold time in the frame's latency span.
	shapeBlockedAt []sim.Time

	transmitting bool
	retryPending bool
	// Preemption state: the in-flight transmission handle, its queue,
	// and a preempted frame awaiting resumption.
	txHandle  *netdev.TxHandle
	txQueue   int
	txBufSlot int // buffer slot of the in-flight frame, freed by txDone
	suspended *suspendedTx

	// Engine callbacks, bound once in New so the per-frame path
	// schedules without building closures.
	txDone     func()
	retry      sim.Handler
	preemptGap sim.Handler
}

// Scheduling labels of the port's own timers.
const (
	labelRetry      = "retry"
	labelPreemptGap = "preempt-gap"
)

// suspendedTx is a preempted frame: its descriptor plus the bytes (and
// fragment overhead) still to serialize.
type suspendedTx struct {
	desc      buffering.Descriptor
	queue     int
	remaining int
}

// New builds a switch from cfg on engine. Panics on invalid config
// (construction is generator output; a bad config is a programming
// error upstream).
func New(engine *sim.Engine, cfg Config) *Switch {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sw := &Switch{
		cfg:    cfg,
		engine: engine,
		Clock:  clock.New(0, 0),
		fwd:    forward.New(cfg.UnicastSize, cfg.MulticastSize),
		flt:    filter.New(cfg.ClassSize, cfg.MeterSize, cfg.QueuesPerPort),
	}
	// SMS mode: one pool shared by every port; default: exclusive
	// per-port pools (Fig. 4).
	var shared *buffering.Pool
	if cfg.SharedBufferNum > 0 {
		shared = buffering.NewPool(cfg.SharedBufferNum)
	}
	for p := 0; p < cfg.Ports; p++ {
		in, out := gate.CQF(cfg.SlotSize, cfg.TSQueueA, cfg.TSQueueB)
		pool := shared
		if pool == nil {
			pool = buffering.NewPool(cfg.BuffersPerPort)
		}
		port := &Port{
			sw:     sw,
			id:     p,
			pool:   pool,
			inGCL:  in,
			outGCL: out,
			bank:   shaper.NewBank(cfg.CBSMapSize, cfg.CBSSize),
		}
		port.ifc = netdev.NewIfc(engine, fmt.Sprintf("sw%d.p%d", cfg.ID, p), port, cfg.RateFor(p))
		port.txDone = port.onTxDone
		port.retry = func(*sim.Engine) {
			port.retryPending = false
			port.tryTransmit()
		}
		port.preemptGap = func(*sim.Engine) {
			port.transmitting = false
			port.tryTransmit()
		}
		for q := 0; q < cfg.QueuesPerPort; q++ {
			port.queues = append(port.queues, buffering.NewQueue(cfg.QueueDepth))
		}
		port.metEnq = make([]metrics.Counter, cfg.QueuesPerPort)
		port.shapeBlockedAt = make([]sim.Time, cfg.QueuesPerPort)
		sw.ports = append(sw.ports, port)
	}
	sw.metrics = cfg.Metrics
	sw.resolveInstruments(cfg.Metrics)
	return sw
}

// ID returns the switch identifier.
func (sw *Switch) ID() int { return sw.cfg.ID }

// Config returns the resource specification the switch was built with.
func (sw *Switch) Config() Config { return sw.cfg }

// Port returns port p's handle.
func (sw *Switch) Port(p int) *Port {
	if p < 0 || p >= len(sw.ports) {
		panic(fmt.Sprintf("tsnswitch: port %d out of range (%d ports)", p, len(sw.ports)))
	}
	return sw.ports[p]
}

// Ifc returns the physical interface of port p, for cabling.
func (sw *Switch) Ifc(p int) *netdev.Ifc { return sw.Port(p).ifc }

// Stats returns a copy of the dataplane counters.
func (sw *Switch) Stats() Stats { return sw.stats }

// Forward returns the Packet Switch stage for control-plane
// programming.
func (sw *Switch) Forward() *forward.Engine { return sw.fwd }

// Filter returns the Ingress Filter stage for control-plane
// programming.
func (sw *Switch) Filter() *filter.Engine { return sw.flt }

// Bank returns port p's CBS bank for control-plane programming.
func (sw *Switch) Bank(p int) *shaper.Bank { return sw.Port(p).bank }

// Pool returns the port's buffer pool (shared across ports in SMS
// mode) for occupancy inspection.
func (p *Port) Pool() *buffering.Pool { return p.pool }

// SetPortSchedules replaces port p's in/out gate schedules — how the
// control plane loads a synthesized 802.1Qbv GCL instead of the
// default CQF pair. The schedule entry count must fit the configured
// gate table size.
func (sw *Switch) SetPortSchedules(p int, in, out gate.Schedule) error {
	if in == nil || out == nil {
		return fmt.Errorf("tsnswitch: nil schedule")
	}
	if in.Size() > sw.cfg.GateSize || out.Size() > sw.cfg.GateSize {
		return fmt.Errorf("tsnswitch: schedule of %d/%d entries exceeds gate table size %d",
			in.Size(), out.Size(), sw.cfg.GateSize)
	}
	port := sw.Port(p)
	port.inGCL, port.outGCL = in, out
	sw.attachGateCounters(port)
	return nil
}

// PortSchedules returns port p's current in/out gate schedules, so a
// caller replacing them (reconfiguration, fault injection) can restore
// the originals afterwards.
func (sw *Switch) PortSchedules(p int) (in, out gate.Schedule) {
	port := sw.Port(p)
	return port.inGCL, port.outGCL
}

// localTime returns the Gate Ctrl time base: the synchronized local
// clock reading.
func (sw *Switch) localTime() sim.Time { return sw.Clock.Now(sw.engine.Now()) }

// Receive implements netdev.Receiver on Port: frames arriving on any
// port enter the shared ingress pipeline.
func (p *Port) Receive(f *ethernet.Frame, on *netdev.Ifc) {
	p.sw.ingress(f)
}

// ingress runs Packet Switch and Ingress Filter, then hands the frame
// to each output port's enqueue stage.
func (sw *Switch) ingress(f *ethernet.Frame) {
	sw.stats.RxFrames++
	sw.met.rx.Inc()
	sw.emit(trace.KindIngress, -1, -1, f, "")
	outPorts, ok := sw.fwd.Resolve(f, sw.outPorts[:0])
	sw.outPorts = outPorts
	if !ok {
		sw.stats.Drops[DropNoRoute]++
		sw.met.drops[DropNoRoute].Inc()
		sw.emit(trace.KindDrop, -1, -1, f, DropNoRoute.String())
		return
	}
	v := sw.flt.Process(f, sw.engine.Now())
	if !v.Conform {
		sw.stats.Drops[DropMeter]++
		sw.met.drops[DropMeter].Inc()
		sw.emit(trace.KindDrop, -1, -1, f, DropMeter.String())
		return
	}
	for _, op := range outPorts {
		if op < 0 || op >= len(sw.ports) {
			sw.stats.Drops[DropNoRoute]++
			sw.met.drops[DropNoRoute].Inc()
			continue
		}
		// Multicast replication copies the header only (the payload is
		// immutable in flight); the common unicast case moves the frame
		// through untouched.
		g := f
		if len(outPorts) > 1 {
			g = f.CloneHeader()
		}
		sw.ports[op].enqueue(g, v.QueueID)
	}
}

// enqueue applies Gate Ctrl's ingress gate and the queue/buffer
// admission of Fig. 4, then kicks the egress scheduler.
func (p *Port) enqueue(f *ethernet.Frame, queueID int) {
	sw := p.sw
	local := sw.localTime()
	// CQF redirects TS frames to whichever pair queue is accepting
	// this slot; other queues are admitted iff their in-gate is open.
	qid := gate.EnqueueTarget(p.inGCL, local, queueID, sw.cfg.TSQueueA, sw.cfg.TSQueueB)
	if qid < 0 {
		sw.stats.Drops[DropGateClosed]++
		sw.met.drops[DropGateClosed].Inc()
		sw.emit(trace.KindDrop, p.id, queueID, f, DropGateClosed.String())
		return
	}
	// Graceful degradation: under buffer pressure shed BE (and, one
	// level up, RC) frames before they consume a buffer. TS frames are
	// never shed here.
	if sw.degrade > DegradeOff && f.Class != ethernet.ClassTS {
		if f.Class == ethernet.ClassBE || sw.degrade >= DegradeShedRC {
			sw.stats.Drops[DropDegraded]++
			sw.met.drops[DropDegraded].Inc()
			sw.emit(trace.KindDrop, p.id, qid, f, DropDegraded.String())
			return
		}
	}
	slot, ok := p.pool.Alloc(f.BufferBytes())
	if !ok {
		sw.stats.Drops[DropBufferFull]++
		sw.met.drops[DropBufferFull].Inc()
		sw.emit(trace.KindDrop, p.id, qid, f, DropBufferFull.String())
		return
	}
	if !p.queues[qid].Push(buffering.Descriptor{Frame: f, Slot: slot, EnqueuedAt: sw.engine.Now()}) {
		p.pool.Free(slot)
		sw.stats.Drops[DropQueueFull]++
		sw.met.drops[DropQueueFull].Inc()
		sw.emit(trace.KindDrop, p.id, qid, f, DropQueueFull.String())
		return
	}
	p.metEnq[qid].Inc()
	sw.emit(trace.KindEnqueue, p.id, qid, f, "")
	p.maybePreempt(qid)
	p.tryTransmit()
}

// isExpress reports whether queue q carries express (TS) traffic.
func (p *Port) isExpress(q int) bool {
	return q == p.sw.cfg.TSQueueA || q == p.sw.cfg.TSQueueB
}

// maybePreempt interrupts an in-flight preemptable frame when an
// express frame just became ready (802.1Qbu). The express frame must
// actually be transmittable now — gate open and inside its guard
// window — or the preemption would idle the wire for nothing.
func (p *Port) maybePreempt(arrivedQueue int) {
	sw := p.sw
	if !sw.cfg.EnablePreemption || !p.transmitting || p.txHandle == nil {
		return
	}
	if p.isExpress(p.txQueue) || !p.isExpress(arrivedQueue) {
		return
	}
	if p.suspended != nil {
		return // one suspended frame at a time (802.3br)
	}
	local := sw.localTime()
	q, ok := p.selectQueue(local)
	if !ok || !p.isExpress(q) {
		return
	}
	remaining, ok := p.txHandle.Abort()
	if !ok {
		return // too early or too late in the frame to cut legally
	}
	frame := p.txHandle.Frame()
	sw.met.preemptions.Inc()
	p.suspended = &suspendedTx{
		desc:      buffering.Descriptor{Frame: frame, Slot: p.txBufSlot},
		queue:     p.txQueue,
		remaining: remaining,
	}
	p.txHandle = nil
	// The wire stays occupied for the fragment's mCRC + IFG; the port
	// frees (and the express frame starts) once it clears. transmitting
	// stays true until then so re-entrant tryTransmit calls no-op.
	gap := p.ifc.FreeAt() - sw.engine.Now()
	if gap < 0 {
		gap = 0
	}
	sw.engine.After(gap, labelPreemptGap, p.preemptGap)
}

// selectQueue implements Egress Sched: strict priority (highest queue
// index first) over queues that are non-empty, whose egress gate is
// open, whose CBS (if any) has non-negative credit, and — for the
// CQF-gated TS queues — whose head frame fits in the remaining slot
// (length-aware guard band).
func (p *Port) selectQueue(local sim.Time) (int, bool) {
	sw := p.sw
	outState := p.outGCL.StateAt(local)
	for q := len(p.queues) - 1; q >= 0; q-- {
		queue := p.queues[q]
		if queue.Len() == 0 {
			continue
		}
		if !outState.Open(q) {
			continue
		}
		if cbs := p.bank.For(q); cbs != nil && !cbs.Eligible(sw.engine.Now()) {
			// The only blocker is shaper credit: stamp the onset so the
			// hold shows up as Shape (not Queue) in the frame's span.
			if p.shapeBlockedAt[q] == 0 {
				p.shapeBlockedAt[q] = sw.engine.Now()
			}
			continue
		}
		if q == sw.cfg.TSQueueA || q == sw.cfg.TSQueueB {
			head, _ := queue.Peek()
			if ethernet.FrameTxTime(head.Frame, sw.cfg.RateFor(p.id)) > p.outGCL.TimeToBoundary(local) {
				// Guard band: the frame would overrun the slot.
				continue
			}
		}
		return q, true
	}
	return 0, false
}

// tryTransmit starts one transmission if the port is idle and a queue
// is eligible; otherwise it arms a retry at the next slot boundary.
// A suspended (preempted) frame resumes as soon as no express frame is
// ready.
func (p *Port) tryTransmit() {
	if p.transmitting {
		return
	}
	sw := p.sw
	local := sw.localTime()
	q, ok := p.selectQueue(local)
	if p.suspended != nil && (!ok || !p.isExpress(q)) {
		p.resumeSuspended()
		return
	}
	if !ok {
		p.armRetry(local)
		return
	}
	d, _ := p.queues[q].Pop()
	p.claimWait(q, local, d)
	if cbs := p.bank.For(q); cbs != nil {
		cbs.OnSend(sw.engine.Now(), int64(d.Frame.WireBytes())*8,
			ethernet.FrameTxTime(d.Frame, sw.cfg.RateFor(p.id)))
		if p.queues[q].Len() == 0 {
			cbs.OnEmpty(sw.engine.Now())
		}
	}
	p.transmitting = true
	p.txQueue = q
	sw.met.residence.Observe(int64(sw.engine.Now() - d.EnqueuedAt))
	sw.emit(trace.KindTxStart, p.id, q, d.Frame, "")
	p.txBufSlot = d.Slot
	p.txHandle = p.ifc.TransmitHandle(d.Frame, p.txDone)
}

// onTxDone completes the in-flight transmission (a whole frame or a
// resumed remainder): it frees the frame's buffer slot and starts the
// next transmission.
func (p *Port) onTxDone() {
	p.pool.Free(p.txBufSlot)
	p.sw.stats.TxFrames++
	p.sw.met.tx.Inc()
	p.transmitting = false
	p.txHandle = nil
	p.tryTransmit()
}

// maxGateScan bounds the analytic gate-wait walk: past this many
// boundaries the remainder books as queue wait. With CQF's two-entry
// schedules 64 boundaries span 32 cycles — far beyond any wait a
// healthy configuration produces.
const maxGateScan = 64

// gateWait returns the gate-schedule share of a wait over the local
// window [from, to): time the egress gate of queue q was closed, plus —
// for the CQF TS queues — the length-aware guard band (the last `need`
// of an open interval the gate closed again before `to`, which the
// frame could not use). Uses PeekState, so probing never perturbs the
// rollover counters bound to StateAt.
func (p *Port) gateWait(q int, from, to, need sim.Time) sim.Time {
	if to <= from {
		return 0
	}
	guard := p.isExpress(q)
	var wait sim.Time
	t := from
	for i := 0; i < maxGateScan && t < to; i++ {
		next := p.outGCL.NextBoundary(t)
		closesBeforeTo := next < to
		if next > to {
			next = to
		}
		if !p.outGCL.PeekState(t).Open(q) {
			wait += next - t
		} else if guard && closesBeforeTo {
			if g := need; g > next-t {
				wait += next - t
			} else {
				wait += g
			}
		}
		t = next
	}
	return wait
}

// claimWait attributes the popped frame's wait at this hop: the gate
// share is computed analytically from the schedule, the shaper share
// from the CBS-blocked stamp; both are clamped so their sum never
// exceeds the actual wait, leaving the remainder (HOL blocking, busy
// wire, preemption gaps) to the span's queue bucket at delivery. The
// local/engine time bases drift by the synchronized clock's rate error
// (< 1e-4), negligible against any wait worth attributing.
func (p *Port) claimWait(q int, local sim.Time, d buffering.Descriptor) {
	sw := p.sw
	blockedAt := p.shapeBlockedAt[q]
	p.shapeBlockedAt[q] = 0
	if !d.Frame.Span.Active() {
		return
	}
	wait := sw.engine.Now() - d.EnqueuedAt
	if wait <= 0 {
		return
	}
	g := p.gateWait(q, local-wait, local, ethernet.FrameTxTime(d.Frame, sw.cfg.RateFor(p.id)))
	if g > wait {
		g = wait
	}
	var s sim.Time
	if blockedAt > 0 {
		if blockedAt < d.EnqueuedAt {
			blockedAt = d.EnqueuedAt // block predates the frame
		}
		s = sw.engine.Now() - blockedAt
	}
	if s > wait-g {
		s = wait - g
	}
	if g > 0 || s > 0 {
		d.Frame.Span.Claim(g, s)
	}
}

// resumeSuspended continues a preempted frame's remaining fragment.
func (p *Port) resumeSuspended() {
	sw := p.sw
	s := p.suspended
	p.suspended = nil
	p.transmitting = true
	p.txQueue = s.queue
	sw.emit(trace.KindTxStart, p.id, s.queue, s.desc.Frame, "resume")
	p.txBufSlot = s.desc.Slot
	p.txHandle = p.ifc.Resume(s.desc.Frame, s.remaining, p.txDone)
}

// armRetry schedules a re-evaluation at the next gate slot boundary if
// any queue holds a frame. Gates are the only time-dependent blockers
// besides CBS credit; CBS-blocked queues are also re-checked then (the
// slot is far longer than any credit recovery of interest).
func (p *Port) armRetry(local sim.Time) {
	if p.retryPending {
		return
	}
	pending := false
	for _, q := range p.queues {
		if q.Len() > 0 {
			pending = true
			break
		}
	}
	if !pending {
		return
	}
	p.retryPending = true
	// Convert the local-time distance to the boundary into engine time.
	// The synchronized clock's rate error is < 1e-4, i.e. < 7 ns over a
	// 65 µs slot — far below the guard band — so the distance is used
	// as-is, plus 1 ns to land strictly inside the next slot.
	delay := p.outGCL.TimeToBoundary(local) + 1
	p.sw.engine.After(delay, labelRetry, p.retry)
}

// QueueHighWater returns the worst-case occupancy of queue q on port
// portID, the dimensioning signal of §III.C.
func (sw *Switch) QueueHighWater(portID, q int) int {
	return sw.Port(portID).queues[q].HighWater()
}

// PoolHighWater returns the worst-case buffer occupancy of port portID.
func (sw *Switch) PoolHighWater(portID int) int {
	return sw.Port(portID).pool.HighWater()
}
