// By-type-id allocation entry points: constructors for environment-side
// callers that hold a dense type id (types.Type.ID) rather than a
// *types.Type, for example when rebuilding a value tree that was
// serialized by type id. They resolve the id against the machine's
// universe; the charge sequence is exactly NewRecordV/NewUnionV/NewArrayV:
// one Alloc charge, Stats.Allocs, and a trace event per object, children
// first.
package vm

import "fmt"

// typeByID resolves a dense type id, faulting the machine on an id the
// program's universe does not define.
func (m *Machine) typeByID(id int) bool {
	if id < 0 || id >= len(m.Prog.Universe.All()) || m.Prog.Universe.ByID(id) == nil {
		m.fault(&Fault{Kind: FaultInternal, Msg: fmt.Sprintf("unknown type id %d", id)})
		return false
	}
	return true
}

// NewRecordVByID is NewRecordV with the type given by dense id.
func (m *Machine) NewRecordVByID(typeID int, elems ...Value) Value {
	if !m.typeByID(typeID) {
		return Value{}
	}
	return m.NewRecordV(m.Prog.Universe.ByID(typeID), elems...)
}

// NewUnionVByID is NewUnionV with the type given by dense id.
func (m *Machine) NewUnionVByID(typeID, tag int, payload Value) Value {
	if !m.typeByID(typeID) {
		return Value{}
	}
	return m.NewUnionV(m.Prog.Universe.ByID(typeID), tag, payload)
}

// NewArrayVByID is NewArrayV with the type given by dense id.
func (m *Machine) NewArrayVByID(typeID, n int, init Value) Value {
	if !m.typeByID(typeID) {
		return Value{}
	}
	return m.NewArrayV(m.Prog.Universe.ByID(typeID), n, init)
}
