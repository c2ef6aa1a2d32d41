// Package netdev is the physical layer of the testbed: full-duplex
// point-to-point Ethernet interfaces joined by links with a line rate
// and a propagation delay. Switches and TSNNic endpoints implement
// Receiver and exchange frames through Ifc values, with store-and-
// forward delivery and wire occupancy that includes preamble and
// inter-frame gap.
package netdev

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/fifo"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// Receiver consumes frames arriving on an interface it owns.
type Receiver interface {
	Receive(f *ethernet.Frame, on *Ifc)
}

// Scheduling labels. Constant, so scheduling a frame event never builds
// a string; the engine reads a label only in its scheduling panics.
const (
	labelDeliver  = "deliver"
	labelRDeliver = "rdeliver"
	labelTxDone   = "txdone"
)

// Ifc is one direction-agnostic Ethernet interface. Transmission is
// exclusive: the owner must wait for the completion callback before
// transmitting again, as a MAC would.
type Ifc struct {
	Name   string
	engine *sim.Engine
	owner  Receiver
	rate   ethernet.Rate
	prop   sim.Time
	peer   *Ifc

	// Transmit side. The MAC is exclusive, so one TxHandle serves every
	// transmission in turn; onDone is the current transmission's
	// completion callback and txDone the engine handler that runs it,
	// bound once in NewIfc.
	tx     TxHandle
	onDone func()
	txDone sim.Handler

	// Receive side: frames on the wire toward this interface, oldest
	// first. Arrivals on one cable strictly increase (each transmission
	// starts after the previous one's serialization plus inter-frame
	// gap), so every delivery event pops the head, and an aborted
	// transmission — always the sender's latest — is the tail.
	// deliverFn is the one delivery handler, bound once.
	inflight  fifo.Queue[inflight]
	deliverFn sim.Handler

	busyUntil sim.Time
	txFrames  uint64
	rxFrames  uint64
	txBytes   uint64
	// sniff, when set, observes every frame delivered to this
	// interface (a mirror-port tap).
	sniff func(*ethernet.Frame, sim.Time)

	// deliverPrio is this interface's stable global index, stamped as
	// the same-instant tie-break priority on every delivery event
	// arriving here. Two deliveries to one interface can never tie (the
	// wire serializes them), so at any instant the priority totally
	// orders all deliveries — by interface identity rather than by
	// scheduling order, which is what lets a partitioned run execute
	// same-instant deliveries in exactly the serial order. Zero (unset)
	// degrades to plain FIFO tie-breaking.
	deliverPrio uint64
	// remotePost, when set, reroutes this interface's deliveries across
	// a partition boundary: instead of scheduling the delivery on the
	// sender's engine, the transmit path hands (frame, arrival instant,
	// final-fragment wire time) to the hook, which mails it to the
	// receiving partition for ScheduleRemoteDelivery. Cut links carry no
	// fault injection or impairments (the partitioned testbed rejects
	// them), so the delivery-time fault checks are skipped on this path.
	remotePost func(f *ethernet.Frame, at, wire sim.Time)

	// Link state. down is symmetric across the cable (both ends are
	// flipped together); epoch increments on every down transition so
	// frames serialized before an outage are dropped at delivery time
	// even if the link has flapped back up by then.
	down  bool
	epoch uint64

	// Egress impairments for the i→peer direction, evaluated at
	// delivery time: lossProb drops the frame outright, corruptProb
	// models a bit error the receiver discards as an FCS failure.
	lossProb    float64
	corruptProb float64
	impairRng   *sim.Rand

	dropLinkDown uint64
	dropLoss     uint64
	dropCorrupt  uint64
	mLinkDown    metrics.Counter
	mLoss        metrics.Counter
	mCorrupt     metrics.Counter
}

// inflight is one frame on the wire toward the receiving interface:
// the receiver's header copy, the final fragment's serialization time
// (the attribution hop closure needs it), the sender's link epoch at
// transmit time, and whether it crossed a cut link (no fault checks).
type inflight struct {
	frame *ethernet.Frame
	wire  sim.Time
	epoch uint64
	cut   bool
}

// NewIfc creates an interface owned by owner at the given line rate.
func NewIfc(engine *sim.Engine, name string, owner Receiver, rate ethernet.Rate) *Ifc {
	if rate <= 0 {
		panic("netdev: non-positive rate")
	}
	i := &Ifc{Name: name, engine: engine, owner: owner, rate: rate}
	i.txDone = i.completeTx
	i.deliverFn = i.deliver
	return i
}

// Connect joins a and b with a cable of the given propagation delay.
func Connect(a, b *Ifc, prop sim.Time) {
	if a.peer != nil || b.peer != nil {
		panic(fmt.Sprintf("netdev: %s or %s already connected", a.Name, b.Name))
	}
	if prop < 0 {
		panic("netdev: negative propagation delay")
	}
	a.peer, b.peer = b, a
	a.prop, b.prop = prop, prop
}

// Rate returns the line rate.
func (i *Ifc) Rate() ethernet.Rate { return i.rate }

// LinkUp reports whether the cable is up. An interface with no cable
// is down by definition.
func (i *Ifc) LinkUp() bool { return i.peer != nil && !i.down }

// SetLink changes the administrative/physical state of the cable this
// interface is attached to. Both ends change together, as with a real
// cable pull. Taking the link down does NOT interrupt the local MAC:
// an in-flight transmission keeps occupying the wire and its onDone
// completion still fires exactly once at the normal time — only the
// delivery to the peer is suppressed. This guarantees a fault can
// never strand a busy interface or double-fire a completion.
//
// Idempotent: setting the current state again is a no-op.
func (i *Ifc) SetLink(up bool) {
	if i.peer == nil {
		panic(fmt.Sprintf("netdev: %s SetLink with no cable", i.Name))
	}
	if up != i.down { // already in the requested state
		return
	}
	i.down, i.peer.down = !up, !up
	if !up {
		i.epoch++
		i.peer.epoch++
	}
}

// Disconnect is SetLink(false): the peer disappears mid-flight. Frames
// currently on the wire are lost; the transmitting MAC completes
// normally.
func (i *Ifc) Disconnect() { i.SetLink(false) }

// SetImpairment configures probabilistic loss and bit corruption for
// frames transmitted from this interface toward its peer. Corrupted
// frames are discarded by the receiver (FCS check), so both impairments
// surface as drops; they are counted separately. rng must be non-nil
// when either probability is positive, and should be dedicated to this
// interface so fault scenarios stay deterministic.
func (i *Ifc) SetImpairment(lossProb, corruptProb float64, rng *sim.Rand) {
	if (lossProb > 0 || corruptProb > 0) && rng == nil {
		panic(fmt.Sprintf("netdev: %s impairment without rng", i.Name))
	}
	if lossProb < 0 || lossProb > 1 || corruptProb < 0 || corruptProb > 1 {
		panic(fmt.Sprintf("netdev: %s impairment probability out of [0,1]", i.Name))
	}
	i.lossProb, i.corruptProb, i.impairRng = lossProb, corruptProb, rng
}

// ClearImpairment removes any configured loss/corruption.
func (i *Ifc) ClearImpairment() { i.lossProb, i.corruptProb, i.impairRng = 0, 0, nil }

// InstrumentLink binds per-reason drop counters for frames lost on the
// i→peer direction of the link (link-down, probabilistic loss, bit
// corruption). Zero-value counters are no-ops.
func (i *Ifc) InstrumentLink(linkDown, loss, corrupt metrics.Counter) {
	i.mLinkDown, i.mLoss, i.mCorrupt = linkDown, loss, corrupt
}

// LinkDrops returns the number of frames lost on the i→peer direction
// broken down by cause: (link down, probabilistic loss, corruption).
func (i *Ifc) LinkDrops() (linkDown, loss, corrupt uint64) {
	return i.dropLinkDown, i.dropLoss, i.dropCorrupt
}

// Peer returns the interface at the other end of the cable.
func (i *Ifc) Peer() *Ifc { return i.peer }

// SetDeliverPrio assigns this interface's stable global index, used as
// the same-instant tie-break priority for deliveries arriving here.
// The testbed assigns indexes in build order (switch ports first, then
// NICs in sorted host order, 1-based) so the numbering is identical in
// serial and partitioned builds.
func (i *Ifc) SetDeliverPrio(p uint64) { i.deliverPrio = p }

// DeliverPrio returns the interface's delivery tie-break index.
func (i *Ifc) DeliverPrio() uint64 { return i.deliverPrio }

// SetRemotePost installs the cut-link hook: deliveries transmitted
// from this interface are handed to fn instead of being scheduled on
// the local engine. The receiving partition replays them through the
// peer's ScheduleRemoteDelivery. Pass nil to restore local delivery.
func (i *Ifc) SetRemotePost(fn func(f *ethernet.Frame, at, wire sim.Time)) { i.remotePost = fn }

// ScheduleRemoteDelivery schedules a frame arriving from the peer
// across a partition boundary onto this (receiving) interface's
// engine, at the precomputed arrival instant with this interface's
// delivery priority — byte-for-byte the same dispatch the serial
// engine would have performed. wire is the final fragment's
// serialization time, needed to close the latency-attribution hop.
// Fault and impairment checks are skipped: partitioned runs carry
// neither (validated at build), so a cut link is always clean. Calls
// must come in arrival order, as the per-link mailbox drains them.
func (i *Ifc) ScheduleRemoteDelivery(f *ethernet.Frame, at, wire sim.Time) {
	i.inflight.Push(inflight{frame: f, wire: wire, cut: true})
	i.engine.AtPrio(at, i.deliverPrio, labelRDeliver, i.deliverFn)
}

// deliver hands the oldest frame on the wire to this interface's
// owner. Link faults and impairments are applied here, at delivery
// time, against the sender's state, so the transmitting MAC's timing
// is never perturbed. The epoch check catches a down/up flap between
// serialization and arrival: a frame launched before (or during) an
// outage is lost even if the link is back up now. Frames from a cut
// link skip the checks.
func (i *Ifc) deliver(e *sim.Engine) {
	now := e.Now()
	in := i.inflight.Pop()
	if !in.cut {
		s := i.peer
		if s.down || s.epoch != in.epoch {
			s.dropLinkDown++
			s.mLinkDown.Inc()
			return
		}
		if s.lossProb > 0 && s.impairRng.Float64() < s.lossProb {
			s.dropLoss++
			s.mLoss.Inc()
			return
		}
		if s.corruptProb > 0 && s.impairRng.Float64() < s.corruptProb {
			// Bit error on the wire: the receiver's FCS check fails
			// and the MAC discards the frame silently.
			s.dropCorrupt++
			s.mCorrupt.Inc()
			return
		}
	}
	i.rxFrames++
	// Close the latency-attribution hop: propagation plus the final
	// fragment's serialization; the remainder since the last boundary
	// books as residence at the transmitting node.
	in.frame.Span.OnDeliver(now, i.prop, in.wire)
	i.owner.Receive(in.frame, i)
	if i.sniff != nil {
		i.sniff(in.frame, now)
	}
}

// Busy reports whether a transmission is occupying the wire now.
func (i *Ifc) Busy() bool { return i.engine.Now() < i.busyUntil }

// FreeAt returns when the current transmission (if any) releases the
// wire.
func (i *Ifc) FreeAt() sim.Time { return i.busyUntil }

// Transmit serializes f onto the wire starting now. onDone (may be nil)
// fires when the interface is free again — after the frame plus
// inter-frame gap. The peer receives the frame store-and-forward: after
// full serialization plus propagation.
//
// Transmitting while Busy panics: the MAC layer above must serialize.
func (i *Ifc) Transmit(f *ethernet.Frame, onDone func()) {
	i.TransmitHandle(f, onDone)
}

// TxHandle tracks one in-flight transmission so a preemption-capable
// MAC (802.3br) can interrupt it. Each interface owns a single handle
// that every transmission reuses — the MAC is exclusive, so at most one
// is ever in flight — which makes a handle valid only until the next
// Transmit, TransmitHandle or Resume on the same interface.
type TxHandle struct {
	ifc       *Ifc
	frame     *ethernet.Frame
	wireBytes int // bytes still to serialize when this (fragment) began
	started   sim.Time
	deliver   sim.EventRef
	done      sim.EventRef
	completed bool
}

// TransmitHandle is Transmit returning an abort handle, valid until the
// interface's next transmission.
func (i *Ifc) TransmitHandle(f *ethernet.Frame, onDone func()) *TxHandle {
	return i.transmitBytes(f, f.WireBytes(), onDone)
}

// transmitBytes serializes wireBytes worth of f (a fragment when below
// the frame's full size); the complete frame is delivered only when the
// final fragment finishes.
func (i *Ifc) transmitBytes(f *ethernet.Frame, wireBytes int, onDone func()) *TxHandle {
	if i.peer == nil {
		panic(fmt.Sprintf("netdev: %s transmit with no cable", i.Name))
	}
	now := i.engine.Now()
	if now < i.busyUntil {
		panic(fmt.Sprintf("netdev: %s transmit while busy until %v", i.Name, i.busyUntil))
	}
	wire := ethernet.TxTime(wireBytes, i.rate)
	occupancy := ethernet.TxTime(wireBytes+ethernet.OverheadBytes, i.rate)
	i.busyUntil = now + occupancy
	i.txFrames++
	i.txBytes += uint64(wireBytes)

	h := &i.tx
	*h = TxHandle{ifc: i, frame: f, wireBytes: wireBytes, started: now}
	i.onDone = onDone
	// Header-only copy: the receiver gets its own header fields but
	// shares the payload bytes, which are immutable once in flight
	// (see the ethernet payload ownership contract).
	deliver := f.CloneHeader()
	if i.remotePost != nil {
		// Cut link: the receiving partition schedules the delivery on
		// its own engine. No local deliver event exists, so Abort()
		// cannot cancel it — the partitioned testbed rejects
		// preemption-enabled designs for exactly this reason.
		i.remotePost(deliver, now+wire+i.prop, wire)
	} else {
		peer := i.peer
		peer.inflight.Push(inflight{frame: deliver, wire: wire, epoch: i.epoch})
		h.deliver = i.engine.AtPrio(now+wire+i.prop, peer.deliverPrio, labelDeliver, peer.deliverFn)
	}
	h.done = i.engine.After(occupancy, labelTxDone, i.txDone)
	return h
}

// completeTx marks the in-flight transmission complete and runs its
// callback, which may start the next transmission.
func (i *Ifc) completeTx(*sim.Engine) {
	i.tx.completed = true
	fn := i.onDone
	i.onDone = nil
	if fn != nil {
		fn()
	}
}

// Frame returns the frame this handle is transmitting.
func (h *TxHandle) Frame() *ethernet.Frame { return h.frame }

// fragOverheadBytes is the extra on-wire cost of each additional
// 802.3br fragment: renewed preamble/SFD, fragment header and mCRC.
const fragOverheadBytes = 24

// minFragmentBytes is the smallest legal non-final fragment.
const minFragmentBytes = 64

// Abort interrupts the transmission at the current instant (802.3br
// preemption): the partial fragment's wire time is already spent, the
// delivery is suppressed, and the remaining bytes (plus the per-
// fragment overhead) are returned for a later Resume. ok is false when
// the frame is too far along (or too early) to preempt legally.
func (h *TxHandle) Abort() (remainingBytes int, ok bool) {
	if h.completed {
		return 0, false
	}
	now := h.ifc.engine.Now()
	elapsed := now - h.started
	sentBytes := int(int64(elapsed) * int64(h.ifc.rate) / (8 * int64(sim.Second)))
	remaining := h.wireBytes - sentBytes
	if sentBytes < minFragmentBytes || remaining < minFragmentBytes {
		return 0, false
	}
	if !h.ifc.engine.Cancel(h.deliver) {
		return 0, false
	}
	h.ifc.peer.inflight.DropTail()
	if !h.ifc.engine.Cancel(h.done) {
		return 0, false
	}
	h.completed = true
	h.ifc.onDone = nil
	// The wire frees after the fragment's mCRC + IFG.
	h.ifc.busyUntil = now + ethernet.TxTime(ethernet.OverheadBytes, h.ifc.rate)
	return remaining + fragOverheadBytes, true
}

// Resume continues an aborted frame: transmits remainingBytes and
// delivers the full original frame when they complete. It reuses the
// interface's one TxHandle, like every transmission.
func (i *Ifc) Resume(f *ethernet.Frame, remainingBytes int, onDone func()) *TxHandle {
	return i.transmitBytes(f, remainingBytes, onDone)
}

// SetSniffer installs a receive-side tap: fn observes every frame
// delivered to this interface, after the owner processed it.
func (i *Ifc) SetSniffer(fn func(*ethernet.Frame, sim.Time)) { i.sniff = fn }

// Counters returns (txFrames, rxFrames, txBytes).
func (i *Ifc) Counters() (uint64, uint64, uint64) {
	return i.txFrames, i.rxFrames, i.txBytes
}
