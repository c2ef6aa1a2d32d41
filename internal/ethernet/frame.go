package ethernet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// EtherType values used by the testbed.
const (
	TypeVLAN uint16 = 0x8100 // 802.1Q tag
	TypeTSN  uint16 = 0x88B5 // experimental: TS/RC/BE test payloads
	TypePTP  uint16 = 0x88F7 // gPTP event/general messages
)

// Frame sizing constants in bytes.
const (
	HeaderBytes   = 14 // dst + src + ethertype
	VLANTagBytes  = 4  // 802.1Q tag
	FCSBytes      = 4  // CRC32 trailer
	MinFrameBytes = 64 // minimum on-wire frame (without preamble)
	MaxFrameBytes = 1522
	// OverheadBytes is preamble (7) + SFD (1) + inter-frame gap (12):
	// consumed on the wire per frame but not stored in buffers.
	OverheadBytes = 20
)

// Class is the TSN traffic class of a flow, in priority order.
type Class uint8

// Traffic classes from the paper's §II.A taxonomy.
const (
	ClassBE Class = iota // best-effort, lowest priority
	ClassRC              // rate-constrained, medium priority
	ClassTS              // time-sensitive, highest priority
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassTS:
		return "TS"
	case ClassRC:
		return "RC"
	case ClassBE:
		return "BE"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Frame is one Ethernet frame traversing the simulated network.
//
// Dataplane-visible fields mirror the real header (addresses, VLAN ID,
// PCP priority, EtherType). FlowID, Seq and the timestamps are
// "tester-side" fields: the hardware TSNNic in the paper embeds them in
// the payload; we carry them as struct fields and also encode them in
// the binary payload so that Marshal/Unmarshal is lossless.
type Frame struct {
	Dst       MAC
	Src       MAC
	VID       uint16 // VLAN ID, 12 bits
	PCP       uint8  // priority code point, 3 bits
	EtherType uint16
	Payload   []byte

	// Tester metadata (encoded in payload for TypeTSN frames).
	FlowID uint32
	Seq    uint32
	Class  Class

	// SentAt is stamped by the generator when the first bit hits the
	// wire; the analyzer computes latency from it. Not on the wire in
	// hardware (the tester correlates by FlowID/Seq); carried here for
	// convenience.
	SentAt sim.Time

	// Span is the per-hop latency attribution context, advanced by
	// netdev at every delivery and by switches at every egress pop. It
	// travels with CloneHeader copies like the other tester metadata
	// and is never marshaled to the wire.
	Span Span
}

// WireBytes returns the frame's on-wire size excluding preamble/IFG:
// header + VLAN tag + payload + FCS, padded to the 64-byte minimum.
func (f *Frame) WireBytes() int {
	n := HeaderBytes + VLANTagBytes + len(f.Payload) + FCSBytes
	if n < MinFrameBytes {
		n = MinFrameBytes
	}
	return n
}

// BufferBytes returns the bytes a switch must store for the frame
// (same as WireBytes; preamble/IFG are never buffered).
func (f *Frame) BufferBytes() int { return f.WireBytes() }

// Payload ownership contract
//
// A frame's Payload is immutable from the instant the frame enters the
// dataplane (NIC injection or Unmarshal). Per-hop forwarding therefore
// copies only the header via CloneHeader — the payload bytes are shared
// by every copy in flight, which removes the dominant per-hop
// allocation of the simulator. The same rule lets one payload back many
// frames: the tester generates every payload as a capacity-capped slice
// of a single shared zero buffer, so no payload may be written or
// appended to in place. Header fields (VID, PCP, addresses) on
// a CloneHeader copy are the copy's own and may be rewritten freely
// (FRER re-tagging does). A path that genuinely needs to rewrite
// payload bytes (a PTP correction-field rewrite in place, fault-model
// bit corruption) must take ownership first with CloneDeep.

// CloneHeader returns a copy of the frame that shares the payload
// bytes — the cheap per-hop copy of the forwarding path. The copy's
// header fields are independent; its Payload aliases the original and
// must be treated as read-only per the payload ownership contract.
func (f *Frame) CloneHeader() *Frame {
	g := *f
	return &g
}

// CloneDeep returns a fully independent copy, payload included. Use it
// on the rare paths that mutate payload bytes in place.
func (f *Frame) CloneDeep() *Frame {
	g := *f
	g.Payload = append([]byte(nil), f.Payload...)
	return &g
}

// testerHeaderBytes is the encoded size of the tester metadata that
// Marshal prepends to TypeTSN payloads.
const testerHeaderBytes = 4 + 4 + 1 + 8

// MarshaledBytes returns the exact encoded size of the frame: header,
// VLAN tag, tester metadata (TypeTSN only) and payload.
func (f *Frame) MarshaledBytes() int {
	n := HeaderBytes + VLANTagBytes + len(f.Payload)
	if f.EtherType == TypeTSN {
		n += testerHeaderBytes
	}
	return n
}

// AppendMarshal encodes the frame to wire format appended to dst and
// returns the extended slice — the allocation-free codec path when the
// caller recycles its buffer. The tester metadata is embedded at the
// front of the payload for TypeTSN frames, mirroring what the hardware
// TSNNic does.
func (f *Frame) AppendMarshal(dst []byte) []byte {
	need := f.MarshaledBytes()
	off := len(dst)
	if cap(dst)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	b := dst[off:]
	copy(b[0:6], f.Dst[:])
	copy(b[6:12], f.Src[:])
	binary.BigEndian.PutUint16(b[12:14], TypeVLAN)
	tci := uint16(f.PCP&0x7)<<13 | f.VID&0x0fff
	binary.BigEndian.PutUint16(b[14:16], tci)
	binary.BigEndian.PutUint16(b[16:18], f.EtherType)
	body := b[HeaderBytes+VLANTagBytes:]
	if f.EtherType == TypeTSN {
		binary.BigEndian.PutUint32(body[0:], f.FlowID)
		binary.BigEndian.PutUint32(body[4:], f.Seq)
		body[8] = byte(f.Class)
		binary.BigEndian.PutUint64(body[9:], uint64(f.SentAt))
		body = body[testerHeaderBytes:]
	}
	copy(body, f.Payload)
	return dst
}

// Marshal encodes the frame into one exactly-sized fresh buffer.
func (f *Frame) Marshal() []byte {
	return f.AppendMarshal(make([]byte, 0, f.MarshaledBytes()))
}

// Unmarshal decodes a frame previously produced by Marshal. The
// returned frame owns its payload (the relevant bytes of b are
// copied), so b may be reused or mutated freely afterwards.
func Unmarshal(b []byte) (*Frame, error) {
	f, err := UnmarshalNoCopy(b)
	if err != nil {
		return nil, err
	}
	f.Payload = append([]byte(nil), f.Payload...)
	return f, nil
}

// UnmarshalNoCopy decodes a frame without copying the payload: the
// returned frame's Payload aliases b.
//
// Aliasing rule: the frame is only valid while b is — callers must not
// retain the frame past the lifetime (or next reuse) of b, and must
// not mutate b while the frame is live. It is meant for transient
// read paths (the pcap reader, analyzers) that decode, inspect and
// discard; anything that keeps the frame must use Unmarshal, which
// owns its buffer.
func UnmarshalNoCopy(b []byte) (*Frame, error) {
	if len(b) < HeaderBytes+VLANTagBytes {
		return nil, errors.New("ethernet: frame too short")
	}
	f := &Frame{}
	copy(f.Dst[:], b[0:6])
	copy(f.Src[:], b[6:12])
	if binary.BigEndian.Uint16(b[12:14]) != TypeVLAN {
		return nil, errors.New("ethernet: missing 802.1Q tag")
	}
	tci := binary.BigEndian.Uint16(b[14:16])
	f.PCP = uint8(tci >> 13)
	f.VID = tci & 0x0fff
	f.EtherType = binary.BigEndian.Uint16(b[16:18])
	body := b[18:]
	if f.EtherType == TypeTSN {
		if len(body) < testerHeaderBytes {
			return nil, errors.New("ethernet: truncated tester header")
		}
		f.FlowID = binary.BigEndian.Uint32(body[0:])
		f.Seq = binary.BigEndian.Uint32(body[4:])
		f.Class = Class(body[8])
		f.SentAt = sim.Time(binary.BigEndian.Uint64(body[9:]))
		body = body[testerHeaderBytes:]
	}
	f.Payload = body
	return f, nil
}

// String summarizes the frame for logs.
func (f *Frame) String() string {
	return fmt.Sprintf("%s flow=%d seq=%d %s->%s vid=%d pcp=%d %dB",
		f.Class, f.FlowID, f.Seq, f.Src, f.Dst, f.VID, f.PCP, f.WireBytes())
}
