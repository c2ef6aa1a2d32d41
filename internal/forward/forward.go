// Package forward implements the Packet Switch function template of
// Fig. 5: a parser submodule that extracts the lookup fields from the
// packet header and a lookup submodule that resolves the output
// port(s). Unicast destinations are matched on (Dst MAC, VID); if the
// destination is a multicast address the multicast index is used to
// find a set of outports (Fig. 4).
package forward

import (
	"encoding/binary"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/tables"
)

// Engine is one switch's Packet Switch stage.
type Engine struct {
	Unicast   *tables.UnicastTable
	Multicast *tables.MulticastTable
	// noRoute counts lookup misses (frames dropped for lack of a
	// forwarding entry).
	noRoute uint64
}

// New creates the stage with the given table capacities (the
// set_switch_tbl customization API parameters).
func New(unicastSize, multicastSize int) *Engine {
	return &Engine{
		Unicast:   tables.NewUnicast(unicastSize),
		Multicast: tables.NewMulticast(multicastSize),
	}
}

// MCID derives the multicast index from a group MAC: the low 16 bits,
// the common hardware convention.
func MCID(dst ethernet.MAC) uint16 {
	return binary.BigEndian.Uint16(dst[4:6])
}

// Resolve parses the frame header and appends the set of output ports
// to buf, returning the extended slice. Callers on the per-frame path
// pass a buffer they own and reuse (buf[:0]), so a lookup allocates
// nothing once the buffer has grown to the widest multicast set; a nil
// buf is fine for one-off lookups. ok is false when no table entry
// matches (the frame is dropped; the testbed installs static routes
// for every flow, so a miss indicates a misconfiguration, which the
// stats surface); buf is then returned unextended.
func (e *Engine) Resolve(f *ethernet.Frame, buf []int) (ports []int, ok bool) {
	if f.Dst.IsMulticast() && !f.Dst.IsBroadcast() {
		mask, hit := e.Multicast.Lookup(MCID(f.Dst))
		if !hit {
			e.noRoute++
			return buf, false
		}
		for p := 0; p < 32; p++ {
			if mask&(1<<uint(p)) != 0 {
				buf = append(buf, p)
			}
		}
		return buf, true
	}
	p, hit := e.Unicast.Lookup(f.Dst, f.VID)
	if !hit {
		e.noRoute++
		return buf, false
	}
	return append(buf, p), true
}

// NoRoute returns the number of lookup misses.
func (e *Engine) NoRoute() uint64 { return e.noRoute }
