package vm

import (
	"encoding/binary"

	"esplang/internal/types"
)

// DecodeState overwrites the machine's semantic state with vec, a state
// vector written by EncodeState on a machine of the same program (see
// encode.go for the layout). The vector describes a quiescent, fault-free
// state, so the ready queue, the pending alt commitment and the fault are
// cleared. Statistics, the cycle meter and the heap's allocation counters
// are not part of the state and are left as they are.
//
// Heap objects are rebuilt into a pool private to this machine, reused
// across decodes, so a decode in steady state performs no allocation.
// (The pool is deliberately NOT the execution heap's free list —
// Heap.Alloc never reuses objects, the §5.2 use-after-free property; only
// whole-state replacement may recycle them, because it retires every
// reference to the previous state at once.) The vector renumbers objects
// in first-visit order, and decoded objects take those numbers as IDs: a
// fault raised after a decode names objects differently from one raised
// on the machine that encoded the state.
//
// DecodeState requires the bit-mask blocking mode (Config.UseWaitQueues
// off): wait queues are derivable state the vector does not carry.
func (m *Machine) DecodeState(vec []byte) {
	if m.Config.UseWaitQueues {
		panic("vm: DecodeState does not support wait-queue mode")
	}
	d := stateDecoder{m: m, buf: vec, types: m.Prog.Universe.All()}
	m.heap.live = int(d.uv())
	for _, p := range m.Procs {
		p.Status = ProcStatus(d.buf[d.pos])
		d.pos++
		p.PC = int(d.uv())
		p.WaitChan = int(d.uv()) - 1
		p.WaitPort = int(d.uv()) - 1
		p.AltIdx = int(d.uv()) - 1
		p.ResumePC = int(d.uv()) - 1
		d.values(p.Locals[:d.uv()])
		p.Stack = resize(p.Stack, int(d.uv()))
		d.values(p.Stack)
		p.Pending, p.PendingFlags = Value{}, 0
		if p.Status == PBlockedSend {
			p.Pending = d.value()
			p.PendingFlags = int(d.uv())
		}
	}
	m.heap.nextID = int(d.n)
	m.ready = m.ready[:0]
	m.commitTarget, m.commitArm = -1, -1
	m.flt = nil
}

type stateDecoder struct {
	m     *Machine
	buf   []byte
	pos   int
	types []*types.Type
	n     int32 // objects decoded so far
}

func (d *stateDecoder) uv() uint64 {
	if b := d.buf[d.pos]; b < 0x80 {
		d.pos++
		return uint64(b)
	}
	return d.uvLong()
}

// uvLong is uv's multi-byte case, kept out of line so uv inlines.
func (d *stateDecoder) uvLong() uint64 {
	v, k := binary.Uvarint(d.buf[d.pos:])
	d.pos += k
	return v
}

// unzigzag inverts zigzag.
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

func (d *stateDecoder) value() Value {
	b := d.buf[d.pos]
	d.pos++
	switch {
	case b < tagBig:
		return Value{Int: unzigzag(uint64(b))}
	case b == tagBig:
		return Value{Int: unzigzag(d.uv())}
	case b == tagNil:
		return Value{IsRef: true}
	case b == tagBack:
		return Value{IsRef: true, Ref: d.m.objPool[d.uv()]}
	}
	// tagObj: objects arrive in first-visit order, so this one is the
	// next pool entry, and every back-reference names an earlier one.
	if int(d.n) == len(d.m.objPool) {
		d.m.objPool = append(d.m.objPool, &Object{})
	}
	o := d.m.objPool[d.n]
	o.ID = int(d.n)
	d.n++
	o.Type = d.types[d.uv()]
	o.Freed = d.buf[d.pos] != 0
	d.pos++
	o.RC = int(unzigzag(d.uv()))
	o.Tag = int(d.uv())
	o.Elems = resize(o.Elems, int(d.uv()))
	d.values(o.Elems)
	return Value{IsRef: true, Ref: o}
}

// values decodes len(dst) values into dst. Scalars — most of a state —
// take the one-byte path without leaving the loop.
func (d *stateDecoder) values(dst []Value) {
	for j := range dst {
		if b := d.buf[d.pos]; b < tagBig {
			d.pos++
			dst[j] = Value{Int: unzigzag(uint64(b))}
		} else {
			dst[j] = d.value()
		}
	}
}

// resize returns s with length n, reusing its storage when it fits.
func resize(s []Value, n int) []Value {
	if cap(s) < n {
		return make([]Value, n)
	}
	return s[:n]
}
