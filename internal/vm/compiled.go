package vm

import (
	"fmt"

	"esplang/internal/obs"
)

// Compiled-engine bridge, and the one body of every effectful operation.
//
// The gobackend emitter translates each process body into a Go function
// (stack slots in Go locals, control flow as labeled gotos) that keeps
// pure instructions inline and calls the CG* methods below for every
// operation that can fault, allocate, trace, or block. execBase and
// execFused call the same methods for their allocation, reference-count,
// communication and fault cases, so each operation's charges, Stats
// bumps, trace events and fault messages are written once and land in
// the same order on every tier. Only the charge-free accessors (field,
// index and union reads, SetIndex, CastReuse) stay inline in each tier,
// sharing checkObj and one fault constructor per message (exec.go).
//
// Generated code runs in a separate process (espc -emit-go builds a main
// package that links this package through the esplang module), so the
// bridge is exported API of the vm package, reachable through the
// esplang.Machine alias.

// CompiledProc is one generated native step function: run process p until
// it blocks, halts, or faults (the compiled analogue of execBase).
type CompiledProc func(m *Machine, p *ProcInst)

// InstallCompiled installs the generated step functions of the compiled
// engine, one per process in process order. The machine must have been
// created with Config.Engine == EngineCompiled (without installed
// functions such a machine runs the baseline loop).
func (m *Machine) InstallCompiled(fns []CompiledProc) error {
	if m.Config.Engine != EngineCompiled {
		return fmt.Errorf("vm: InstallCompiled on a %s-engine machine", m.Config.Engine)
	}
	if len(fns) != len(m.Procs) {
		return fmt.Errorf("vm: InstallCompiled: %d step functions for %d processes", len(fns), len(m.Procs))
	}
	m.compiled = fns
	return nil
}

// CGBudgetFault charges the base instructions the baseline would still
// have executed when a bulk-charged segment of n instructions starting at
// base pc crosses the step budget, and faults at the component the
// baseline would have faulted at: with b = steps-n instructions already
// run, the first j = budget-b components are charged and the fault pc is
// base+j. The baseline calls it with n = 1 (j = 0), execFused per group.
func (m *Machine) CGBudgetFault(p *ProcInst, base int, n, steps int64) {
	j := m.Config.StepBudget - (steps - n)
	m.Cycles += j * m.Cost.PerInstr
	m.Stats.Instrs += j
	p.PC = base + int(j)
	m.setFault(&Fault{Kind: FaultStep,
		Msg: fmt.Sprintf("process executed more than %d instructions without blocking", m.Config.StepBudget)}, p)
}

// CGBadResume reports a resume at a pc the generated dispatch table does
// not know — an emitter bug, never a program bug.
func (m *Machine) CGBadResume(p *ProcInst, pc int) {
	m.setFault(&Fault{Kind: FaultInternal,
		Msg: fmt.Sprintf("compiled engine: resume at unexpected pc %d", pc)}, p)
}

// CGHalt terminates the process (the Halt opcode).
func (m *Machine) CGHalt(p *ProcInst) { p.Status = PHalted }

// CGDivFault reports division (or modulo) by zero; the operands were
// consumed by the generated code.
func (m *Machine) CGDivFault(p *ProcInst, mod bool) {
	msg := "division by zero"
	if mod {
		msg = "modulo by zero"
	}
	m.setFault(&Fault{Kind: FaultDivByZero, Msg: msg}, p)
}

// CGAssertFault reports a failed assert (the condition was already popped
// and tested by the generated code).
func (m *Machine) CGAssertFault(p *ProcInst, idx int) {
	info := m.Prog.Asserts[idx]
	m.setFault(&Fault{Kind: FaultAssert,
		Msg: fmt.Sprintf("assert(%s) failed", info.Expr), Pos: info.Pos}, p)
}

// CGNewRecord runs the NewRecord opcode against p's architectural stack:
// the nf field operands are on p.Stack (the generated code spills them
// there first and reloads the pushed reference afterwards). Returns false
// on fault.
func (m *Machine) CGNewRecord(p *ProcInst, typeID, nf int, mask int64) bool {
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

// CGNewUnion runs the NewUnion opcode on a popped payload.
func (m *Machine) CGNewUnion(p *ProcInst, payload Value, typeID, tag int, absorb bool) (Value, bool) {
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

// CGNewArray runs the NewArray opcode (operands: init on top of count).
func (m *Machine) CGNewArray(p *ProcInst, count, init Value, typeID int) (Value, bool) {
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

// CGGetField runs the GetField opcode.
func (m *Machine) CGGetField(p *ProcInst, v Value, idx int) (Value, bool) {
	o := m.checkObj(v, p)
	if o == nil {
		return Value{}, false
	}
	return o.Elems[idx], true
}

// CGSetField runs the SetField opcode (ov is the record, v the value).
func (m *Machine) CGSetField(p *ProcInst, ov, v Value, idx int) bool {
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

// CGGetIndex runs the GetIndex opcode.
func (m *Machine) CGGetIndex(p *ProcInst, ov, iv Value) (Value, bool) {
	o := m.checkObj(ov, p)
	if o == nil {
		return Value{}, false
	}
	if iv.Int < 0 || int(iv.Int) >= len(o.Elems) {
		m.indexFault(p, iv.Int, len(o.Elems))
		return Value{}, false
	}
	return o.Elems[iv.Int], true
}

// CGSetIndex runs the SetIndex opcode.
func (m *Machine) CGSetIndex(p *ProcInst, ov, iv, v Value) bool {
	o := m.checkObj(ov, p)
	if o == nil {
		return false
	}
	if iv.Int < 0 || int(iv.Int) >= len(o.Elems) {
		m.indexFault(p, iv.Int, len(o.Elems))
		return false
	}
	o.Elems[iv.Int] = v
	return true
}

// CGUnionGet runs the UnionGet opcode.
func (m *Machine) CGUnionGet(p *ProcInst, v Value, tag int) (Value, bool) {
	o := m.checkObj(v, p)
	if o == nil {
		return Value{}, false
	}
	if o.Tag != tag {
		m.tagFault(p, o.Tag, tag)
		return Value{}, false
	}
	return o.Elems[0], true
}

// CGLink runs the Link opcode.
func (m *Machine) CGLink(p *ProcInst, v Value) bool {
	o := m.checkObj(v, p)
	return o != nil && m.link(p, o)
}

// CGUnlink runs the Unlink opcode.
func (m *Machine) CGUnlink(p *ProcInst, v Value) bool {
	if !v.IsRef || v.Ref == nil {
		m.setFault(&Fault{Kind: FaultInternal, Msg: "unlink of scalar"}, p)
		return false
	}
	return m.unlink(p, v.Ref)
}

// CGCastCopy runs the CastCopy opcode.
func (m *Machine) CGCastCopy(p *ProcInst, v Value, typeID int) (Value, bool) {
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

// CGCastReuse runs the CastReuse opcode.
func (m *Machine) CGCastReuse(p *ProcInst, v Value, typeID int) (Value, bool) {
	o := m.checkObj(v, p)
	if o == nil {
		return Value{}, false
	}
	o.Type = m.Prog.Universe.ByID(typeID)
	return RefVal(o), true
}

// CGSend runs the Send/SendCommit opcode with the value already popped
// into v. It returns true when the rendezvous completed and the process
// continues at resumePC; false when the process blocked or the machine
// faulted (the generated function returns to the scheduler either way).
func (m *Machine) CGSend(p *ProcInst, v Value, chanID, flags, resumePC int, commit bool) bool {
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

// CGRecv runs the Recv opcode. Same return convention as CGSend.
func (m *Machine) CGRecv(p *ProcInst, chanID, portIdx, resumePC int) bool {
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

// CGAlt runs the Alt opcode. cont=true means the process continues at
// next; cont=false means it parked (blocked alt / collapsed blocked recv)
// or the machine faulted.
func (m *Machine) CGAlt(p *ProcInst, altIdx int) (next int, cont bool) {
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

// CGSendDirScalar is the statically-matched send fast path. The emitter
// uses it only when the optimizer's schedule proves the channel has
// exactly one sending and one receiving site (plain Send/Recv, no alt
// arms, no external binding), the element type is scalar, and the
// receiver's port pattern is a wildcard or a single bind — so a match
// can never fail and moves no references. The charge sequence is the
// baseline's: one MaskCheck for the partner search, then on success one
// PatternNode (the single pattern node the match walks) and the
// Rendezvous charge; on a miss the sender blocks after the single
// MaskCheck, exactly like the full-table scan over a program where no
// other process can touch the channel.
func (m *Machine) CGSendDirScalar(p *ProcInst, v Value, chanID, flags, resumePC, partner, port, slot int, bind bool) bool {
	m.chargeEv(obs.KindMaskCheck, m.Cost.MaskCheck)
	m.Stats.MaskChecks++
	r := m.Procs[partner]
	if r.Status == PBlockedRecv && r.WaitChan == chanID && r.WaitPort == port {
		m.chargeEv(obs.KindPattern, m.Cost.PatternNode)
		m.Stats.PatternNodes++
		m.chargeEv(obs.KindRendezvous, m.Cost.Rendezvous)
		m.Stats.Rendezvous++
		m.traceRendezvous(chanID, p.ID, r.ID)
		if bind {
			r.Locals[slot] = v
		}
		m.Stats.DirectXfers++
		m.unblock(r, r.ResumePC)
		return true
	}
	p.Pending = v
	p.PendingFlags = flags
	p.WaitChan = chanID
	p.ResumePC = resumePC
	p.Status = PBlockedSend
	return false
}

// CGRecvDirScalar is the receive half of the statically-matched fast
// path (same emission conditions as CGSendDirScalar). On a miss the
// failed search pays a second MaskCheck — the baseline's phase-2
// alt-arm pass — before blocking.
func (m *Machine) CGRecvDirScalar(p *ProcInst, chanID, portIdx, resumePC, partner, slot int, bind bool) bool {
	m.chargeEv(obs.KindMaskCheck, m.Cost.MaskCheck)
	m.Stats.MaskChecks++
	s := m.Procs[partner]
	if s.Status == PBlockedSend && s.WaitChan == chanID {
		m.chargeEv(obs.KindPattern, m.Cost.PatternNode)
		m.Stats.PatternNodes++
		m.chargeEv(obs.KindRendezvous, m.Cost.Rendezvous)
		m.Stats.Rendezvous++
		m.traceRendezvous(chanID, s.ID, p.ID)
		if bind {
			p.Locals[slot] = s.Pending
		}
		m.Stats.DirectXfers++
		m.unblock(s, s.ResumePC)
		return true
	}
	m.chargeEv(obs.KindMaskCheck, m.Cost.MaskCheck)
	m.Stats.MaskChecks++
	p.WaitChan = chanID
	p.WaitPort = portIdx
	p.ResumePC = resumePC
	p.Status = PBlockedRecv
	return false
}

// CGQuiet reports that no per-event observer is attached — no flight
// recorder, no metrics sink, no profiler, and no wait-queue
// accounting. The generated fused fast path (two statically-paired
// processes compiled into one function with inline rendezvous and
// deferred context switches) only runs on a quiet machine; with any
// observer attached the generated dispatchers fall back to the general
// per-process step functions, whose bridge calls emit every event the
// baseline does.
func (m *Machine) CGQuiet() bool {
	return m.rec == nil && m.mCtx == nil && m.prof == nil &&
		!m.Config.UseWaitQueues
}

// CGXfer is the fused fast path's deferred context switch. The partner r
// was made ready by an earlier inline rendezvous in the same generated
// function — without an enqueue, because the very next block point of
// the running process would immediately pop it again — and the running
// process has now blocked or halted. CGXfer performs exactly the
// bookkeeping RunReady does when it pops a ready process: the
// cycle-budget check (fault attributed to r, same message) and the
// context-switch charge. It returns false when control must return to
// the scheduler instead: a fault is pending, r is not ready, or the
// cycle budget is exhausted. The caller only invokes it on a quiet
// machine (CGQuiet), so the profiler line attribution and the
// recorder/metrics branches of RunReady are all no-ops here.
func (m *Machine) CGXfer(r *ProcInst) bool {
	if m.flt != nil || r.Status != PReady {
		return false
	}
	if m.Config.MaxCycles > 0 && m.Cycles >= m.Config.MaxCycles {
		m.setFault(&Fault{Kind: FaultStep, Msg: fmt.Sprintf("cycle budget exhausted: machine exceeded %d cycles", m.Config.MaxCycles)}, r)
		return false
	}
	m.Cycles += m.Cost.CtxSwitch
	m.Stats.CtxSwitches++
	return true
}

// CGSpill exposes the architectural stack for the generated spill/reload
// sequences: it truncates or extends p.Stack to depth d within its fixed
// capacity. The generated code then stores its live Go-local slots into
// the slice before a stack-consuming bridge call or a blocking point.
func CGSpill(p *ProcInst, d int) []Value {
	p.Stack = p.Stack[:d]
	return p.Stack
}
