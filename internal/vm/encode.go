package vm

import (
	"encoding/binary"
)

// The state vector: the one serialized form of a machine's semantic
// state. EncodeState writes it and DecodeState (savedstate.go) restores
// a machine from it, so the model checker stores each state once — as
// its visited-set key — and expands it straight from that key, SPIN's
// single state vector.
//
// Layout: the live-object count, then per process its status, pc,
// blocking descriptor (wait channel, port, alt index and resume pc, each
// +1 so -1 fits a uvarint), locals and operand stack (each a count
// followed by values), and for a blocked sender the pending value and
// its flags. Counts and descriptors are uvarints. A value is one tag
// byte, possibly followed by more:
//
//	< tagBig  a scalar whose zigzag form is the byte itself
//	tagBig    any other scalar: zigzag uvarint
//	tagNil    the nil reference
//	tagBack   an object already in the vector: uvarint first-visit index
//	tagObj    an object's first visit: uvarint type id, freed flag byte,
//	          zigzag reference count, uvarint union tag, uvarint element
//	          count, then the elements as values
const (
	tagBig  = 0xF0
	tagNil  = 0xF1
	tagBack = 0xF2
	tagObj  = 0xF3
)

// EncodeState serializes the machine's semantic state into its canonical
// state vector: two states encode equally iff they are behaviorally
// identical. Heap objects are renumbered in first-visit order during a
// deterministic traversal from the process roots, so object identities
// assigned at different allocation times do not distinguish states —
// the objectId canonicalization of §5.2.
//
// The traversal marks objects with the machine's generation counter
// (instead of building a map per call) and writes into the machine's
// reused encode buffer. The result is a view of that buffer, valid until
// the next EncodeState on this machine: callers that keep it copy it.
// EncodeState is therefore not safe for concurrent use on one machine —
// which was already true of every execution entry point; the model
// checker's workers each own their machine.
func (m *Machine) EncodeState() []byte {
	m.markGen++
	e := stateEncoder{buf: m.encBuf[:0], gen: m.markGen}
	// The live-object count is part of the state: leaked objects are
	// unreachable from the roots but still occupy objectIds, and it is
	// exactly their accumulation that the verifier's fixed-size table
	// catches (§5.2).
	e.uv(uint64(m.heap.live))
	for _, p := range m.Procs {
		e.buf = append(e.buf, uint8(p.Status))
		e.uv(uint64(p.PC))
		e.uv(uint64(p.WaitChan + 1))
		e.uv(uint64(p.WaitPort + 1))
		e.uv(uint64(p.AltIdx + 1))
		e.uv(uint64(p.ResumePC + 1))
		e.values(p.Locals)
		e.values(p.Stack)
		if p.Status == PBlockedSend {
			e.value(p.Pending)
			e.uv(uint64(p.PendingFlags))
		}
	}
	m.encBuf = e.buf
	return e.buf
}

type stateEncoder struct {
	buf []byte
	gen int64
	n   int32 // next first-visit object index
}

func (e *stateEncoder) uv(v uint64) {
	if v < 0x80 {
		e.buf = append(e.buf, byte(v))
		return
	}
	e.buf = binary.AppendUvarint(e.buf, v)
}

// zigzag maps signed to unsigned so small magnitudes of either sign stay
// small: 0, -1, 1, -2, ... become 0, 1, 2, 3, ...
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func (e *stateEncoder) value(v Value) {
	if !v.IsRef {
		if z := zigzag(v.Int); z < tagBig {
			e.buf = append(e.buf, byte(z))
		} else {
			e.buf = binary.AppendUvarint(append(e.buf, tagBig), z)
		}
		return
	}
	o := v.Ref
	if o == nil {
		e.buf = append(e.buf, tagNil)
		return
	}
	if o.mark == e.gen {
		e.buf = append(e.buf, tagBack)
		e.uv(uint64(o.markIdx))
		return
	}
	o.mark = e.gen
	o.markIdx = e.n
	e.n++
	e.buf = append(e.buf, tagObj)
	e.uv(uint64(o.Type.ID()))
	freed := byte(0)
	if o.Freed {
		freed = 1
	}
	e.buf = append(e.buf, freed)
	e.uv(zigzag(int64(o.RC)))
	e.uv(uint64(o.Tag))
	e.values(o.Elems)
}

// values writes a count, then the values. Small scalars — most of a
// state — take the one-byte path without leaving the loop.
func (e *stateEncoder) values(vs []Value) {
	e.uv(uint64(len(vs)))
	for _, v := range vs {
		if z := zigzag(v.Int); !v.IsRef && z < tagBig {
			e.buf = append(e.buf, byte(z))
		} else {
			e.value(v)
		}
	}
}
