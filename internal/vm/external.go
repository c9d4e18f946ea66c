package vm

import (
	"fmt"

	"esplang/internal/types"
)

// ExternalWriter is the Go-side binding of a channel with an external
// writer (§4.5): the environment produces messages that ESP processes
// receive. It is the runtime analogue of the generated C functions
// XxxIsReady + one function per interface case.
type ExternalWriter interface {
	// Ready reports whether a message is available, and if so which
	// interface case of the channel it belongs to.
	Ready(m *Machine) (caseIdx int, ok bool)
	// Take consumes the pending message for the given case and returns it
	// as a machine value. Implementations build values with the machine's
	// New* helpers; the returned value is treated as a fresh temporary
	// (the machine releases its allocation reference after transfer).
	Take(m *Machine, caseIdx int) Value
}

// ExternalReader is the Go-side binding of a channel with an external
// reader: ESP processes send messages that the environment consumes. The
// value passed to Put is only valid during the call (as with the
// generated C interface, which hands over pointers).
type ExternalReader interface {
	// Ready reports whether the environment will accept a message now.
	Ready(m *Machine) bool
	// Put delivers a message. Implementations must copy out any data they
	// need before returning.
	Put(m *Machine, v Value)
}

// ---------------------------------------------------------------------------
// Convenience bindings used by tests, examples, and the NIC substrate.

// QueueWriter is an ExternalWriter backed by a FIFO of prebuilt messages.
// Each queued item carries the interface case index and a builder
// function invoked at Take time (so allocation happens on the machine
// that consumes the message).
type QueueWriter struct {
	items []QueueItem
}

// QueueItem is one pending external message.
type QueueItem struct {
	Case  int
	Build func(m *Machine) Value
}

// Push queues a message.
func (q *QueueWriter) Push(caseIdx int, build func(m *Machine) Value) {
	q.items = append(q.items, QueueItem{Case: caseIdx, Build: build})
}

// Len returns the number of queued messages.
func (q *QueueWriter) Len() int { return len(q.items) }

// Ready implements ExternalWriter.
func (q *QueueWriter) Ready(_ *Machine) (int, bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].Case, true
}

// Take implements ExternalWriter.
func (q *QueueWriter) Take(m *Machine, caseIdx int) Value {
	it := q.items[0]
	q.items = q.items[1:]
	if it.Case != caseIdx {
		panic(fmt.Sprintf("vm: QueueWriter.Take case %d, queued %d", caseIdx, it.Case))
	}
	return it.Build(m)
}

// CollectReader is an ExternalReader that snapshots every received value
// into a Go-native representation (see Snapshot).
type CollectReader struct {
	Values []Snapshot
	// Limit, when positive, makes Ready return false once len(Values)
	// reaches it (useful for bounded test runs).
	Limit int
}

// Ready implements ExternalReader.
func (r *CollectReader) Ready(_ *Machine) bool {
	return r.Limit <= 0 || len(r.Values) < r.Limit
}

// Put implements ExternalReader.
func (r *CollectReader) Put(_ *Machine, v Value) {
	r.Values = append(r.Values, Snap(v))
}

// Snapshot is a Go-native deep copy of a machine value: an int64 for
// scalars, or a *SnapObject for references.
type Snapshot struct {
	Scalar int64
	Obj    *SnapObject
}

// SnapObject mirrors Object outside the machine heap.
type SnapObject struct {
	Type  *types.Type
	Tag   int
	Elems []Snapshot
}

// Snap deep-copies a machine value into a Snapshot.
func Snap(v Value) Snapshot {
	if !v.IsRef {
		return Snapshot{Scalar: v.Int}
	}
	o := &SnapObject{Type: v.Ref.Type, Tag: v.Ref.Tag, Elems: make([]Snapshot, len(v.Ref.Elems))}
	for i, e := range v.Ref.Elems {
		o.Elems[i] = Snap(e)
	}
	return Snapshot{Obj: o}
}

// Int returns the snapshot's scalar value (0 for references).
func (s Snapshot) Int() int64 { return s.Scalar }

// Field returns the i'th element of a snapshotted object.
func (s Snapshot) Field(i int) Snapshot {
	if s.Obj == nil || i >= len(s.Obj.Elems) {
		return Snapshot{}
	}
	return s.Obj.Elems[i]
}

// ---------------------------------------------------------------------------
// Value construction helpers for external bindings.

// NewRecordV allocates a record object from the given element values.
// Reference elements are treated as fresh (absorbed).
func (m *Machine) NewRecordV(t *types.Type, elems ...Value) Value {
	o := m.alloc(nil, t, len(elems))
	if o == nil {
		return Value{}
	}
	copy(o.Elems, elems)
	return RefVal(o)
}

// NewUnionV allocates a union object.
func (m *Machine) NewUnionV(t *types.Type, tag int, payload Value) Value {
	o := m.alloc(nil, t, 1)
	if o == nil {
		return Value{}
	}
	o.Tag = tag
	o.Elems[0] = payload
	return RefVal(o)
}

// NewArrayV allocates an array object of n elements initialized to init.
func (m *Machine) NewArrayV(t *types.Type, n int, init Value) Value {
	o := m.alloc(nil, t, n)
	if o == nil {
		return Value{}
	}
	for i := range o.Elems {
		o.Elems[i] = init
	}
	return RefVal(o)
}
