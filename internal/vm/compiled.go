package vm

import "fmt"

// The one body of every effectful operation. execBase and execFused call
// the op* methods below for their allocation, reference-count,
// communication and fault cases, so each operation's charges, Stats
// bumps, trace events and fault messages are written once and land in
// the same order on both tiers. Only the charge-free accessors (field,
// index and union reads, SetIndex, CastReuse) stay inline in each tier,
// sharing checkObj and one fault constructor per message (exec.go).

// budgetFault charges the base instructions the baseline would still
// have executed when a bulk-charged segment of n instructions starting at
// base pc crosses the step budget, and faults at the component the
// baseline would have faulted at: with b = steps-n instructions already
// run, the first j = budget-b components are charged and the fault pc is
// base+j. The baseline calls it with n = 1 (j = 0), execFused per group.
func (m *Machine) budgetFault(p *ProcInst, base int, n, steps int64) {
	j := m.Config.StepBudget - (steps - n)
	m.Cycles += j * m.Cost.PerInstr
	m.Stats.Instrs += j
	p.PC = base + int(j)
	m.setFault(&Fault{Kind: FaultStep,
		Msg: fmt.Sprintf("process executed more than %d instructions without blocking", m.Config.StepBudget)}, p)
}

// divFault reports division (or modulo) by zero; the caller has
// consumed the operands.
func (m *Machine) divFault(p *ProcInst, mod bool) {
	msg := "division by zero"
	if mod {
		msg = "modulo by zero"
	}
	m.setFault(&Fault{Kind: FaultDivByZero, Msg: msg}, p)
}

// assertFault reports a failed assert (the caller has popped and
// tested the condition).
func (m *Machine) assertFault(p *ProcInst, idx int) {
	info := m.Prog.Asserts[idx]
	m.setFault(&Fault{Kind: FaultAssert,
		Msg: fmt.Sprintf("assert(%s) failed", info.Expr), Pos: info.Pos}, p)
}

// opNewRecord runs the NewRecord opcode against p's operand stack: it
// pops the nf field operands and pushes the new reference. Returns false
// on fault.
func (m *Machine) opNewRecord(p *ProcInst, typeID, nf int, mask int64) bool {
	o := m.alloc(p, m.Prog.Universe.ByID(typeID), nf)
	if o == nil {
		return false
	}
	for i := nf - 1; i >= 0; i-- {
		v := p.pop()
		o.Elems[i] = v
		// Borrowed (non-fresh) reference fields are linked; fresh
		// temporaries (mask bit set) are absorbed: their allocation
		// reference moves into the record.
		if v.IsRef && mask&(1<<i) == 0 && !m.link(p, v.Ref) {
			return false
		}
	}
	p.push(RefVal(o))
	return true
}

// opNewUnion runs the NewUnion opcode on a popped payload.
func (m *Machine) opNewUnion(p *ProcInst, payload Value, typeID, tag int, absorb bool) (Value, bool) {
	o := m.alloc(p, m.Prog.Universe.ByID(typeID), 1)
	if o == nil {
		return Value{}, false
	}
	o.Tag = tag
	o.Elems[0] = payload
	if payload.IsRef && !absorb && !m.link(p, payload.Ref) {
		return Value{}, false
	}
	return RefVal(o), true
}

// opNewArray runs the NewArray opcode (operands: init on top of count).
func (m *Machine) opNewArray(p *ProcInst, count, init Value, typeID int) (Value, bool) {
	if count.Int < 0 {
		m.setFault(&Fault{Kind: FaultIndexOOB, Msg: fmt.Sprintf("array size %d is negative", count.Int)}, p)
		return Value{}, false
	}
	if count.Int > MaxAllocElems {
		m.setFault(&Fault{Kind: FaultOutOfObjects, Msg: fmt.Sprintf("array size %d exceeds the %d-element object limit", count.Int, MaxAllocElems)}, p)
		return Value{}, false
	}
	o := m.alloc(p, m.Prog.Universe.ByID(typeID), int(count.Int))
	if o == nil {
		return Value{}, false
	}
	for i := range o.Elems {
		o.Elems[i] = init
	}
	return RefVal(o), true
}

// opSetField runs the SetField opcode (ov is the record, v the value).
func (m *Machine) opSetField(p *ProcInst, ov, v Value, idx int) bool {
	o := m.checkObj(ov, p)
	if o == nil {
		return false
	}
	old := o.Elems[idx]
	o.Elems[idx] = v
	if v.IsRef && !m.link(p, v.Ref) {
		return false
	}
	return !old.IsRef || m.unlink(p, old.Ref)
}

// opLink runs the Link opcode.
func (m *Machine) opLink(p *ProcInst, v Value) bool {
	o := m.checkObj(v, p)
	return o != nil && m.link(p, o)
}

// opUnlink runs the Unlink opcode.
func (m *Machine) opUnlink(p *ProcInst, v Value) bool {
	if !v.IsRef || v.Ref == nil {
		m.setFault(&Fault{Kind: FaultInternal, Msg: "unlink of scalar"}, p)
		return false
	}
	return m.unlink(p, v.Ref)
}

// opCastCopy runs the CastCopy opcode.
func (m *Machine) opCastCopy(p *ProcInst, v Value, typeID int) (Value, bool) {
	o := m.checkObj(v, p)
	if o == nil {
		return Value{}, false
	}
	n := m.alloc(p, m.Prog.Universe.ByID(typeID), len(o.Elems))
	if n == nil {
		return Value{}, false
	}
	n.Tag = o.Tag
	copy(n.Elems, o.Elems)
	for _, e := range n.Elems {
		if e.IsRef && !m.link(p, e.Ref) {
			return Value{}, false
		}
	}
	return RefVal(n), true
}

// opSend runs the Send/SendCommit opcode with the value already popped
// into v. It returns true when the rendezvous completed and the process
// continues at resumePC; false when the process blocked or the machine
// faulted (the caller returns to the scheduler either way).
func (m *Machine) opSend(p *ProcInst, v Value, chanID, flags, resumePC int, commit bool) bool {
	p.Pending = v
	p.PendingFlags = flags
	p.WaitChan = chanID
	p.ResumePC = resumePC
	if (!m.Config.Manual || commit) && m.tryCompleteSend(p) {
		return m.flt == nil
	}
	if m.flt != nil {
		return false
	}
	if commit {
		m.setFault(&Fault{Kind: FaultNoMatchingPort,
			Msg: fmt.Sprintf("committed send on channel %s matches no waiting receiver",
				m.Prog.Channels[chanID].Name)}, p)
		return false
	}
	p.Status = PBlockedSend
	m.regSend(p, chanID)
	return false
}

// opRecv runs the Recv opcode. Same return convention as opSend.
func (m *Machine) opRecv(p *ProcInst, chanID, portIdx, resumePC int) bool {
	p.WaitChan = chanID
	p.WaitPort = portIdx
	p.ResumePC = resumePC
	if !m.Config.Manual && m.tryCompleteRecv(p) {
		return m.flt == nil
	}
	if m.flt != nil {
		return false
	}
	p.Status = PBlockedRecv
	m.regRecv(p, chanID)
	return false
}

// opAlt runs the Alt opcode. cont=true means the process continues at
// next; cont=false means it parked (blocked alt / collapsed blocked recv)
// or the machine faulted.
func (m *Machine) opAlt(p *ProcInst, altIdx int) (next int, cont bool) {
	p.AltIdx = altIdx
	if m.Config.Manual {
		p.Status = PBlockedAlt
		return 0, false
	}
	next, cont = m.altStep(p)
	if m.flt != nil {
		return 0, false
	}
	return next, cont
}
