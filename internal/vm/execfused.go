package vm

import (
	"fmt"

	"esplang/internal/ir"
	"esplang/internal/obs"
)

// execFused runs process p until it blocks, halts, or faults, using the
// fused translation of its code (see internal/ir/fused.go). It is charged
// and observed exactly like execBase:
//
//   - a fused instruction covering N base instructions bulk-charges
//     N*PerInstr cycles and N Stats.Instrs at group entry — legal because
//     fusion only groups instructions whose interior components are pure
//     (no faults, no trace events), so no observer can see the meter
//     between them;
//   - the step budget is enforced at the same base-instruction boundary:
//     if a group would cross it, only the components the baseline would
//     have executed are charged and the fault pc is the component the
//     baseline would have faulted at (the values computed by the already-
//     charged components are not materialized — the machine is stopping);
//   - components that can fault or emit a trace event are always the last
//     of their group, with p.PC adjusted to their base pc first, so fault
//     attribution and trace timestamps are bit-identical (FXferRec's
//     NewRecord, which unwinds the bulk charge to its own, is the one
//     exception);
//   - every such component runs through the op* (or *Fault) method the
//     baseline calls for it (compiled.go), so each operation's charges,
//     counters, events and fault messages have one body; only the
//     charge-free accessors and the schedule fast paths are inline.
//
// execFused only runs when no profiler is installed (exec falls back to
// execBase otherwise): per-line cycle attribution needs the baseline's
// per-instruction charge points.
func (m *Machine) execFused(p *ProcInst) {
	fp := m.fused[p.ID]
	code := fp.Code
	var steps int64

	// Resume points are always group heads (entry points are never fused
	// into a group interior), so the translation is defined here.
	pcF := int(fp.Map[p.PC])
	if pcF < 0 {
		m.setFault(&Fault{Kind: FaultInternal, Msg: "resume inside a fused group"}, p)
		return
	}

	for m.flt == nil {
		fi := &code[pcF]
		n := int64(fi.N)
		steps += n
		if steps > m.Config.StepBudget {
			// The baseline executes components one at a time, so only the
			// components it would have run are charged (budgetFault).
			// When the budget admits an FXferRec's NewRecord but not its
			// Send, the baseline completes the allocation (it is
			// observable — heap state, Stats, trace) before faulting at
			// the Send's pc.
			if fi.Op == ir.FXferRec && steps-n < m.Config.StepBudget {
				m.Cycles += m.Cost.PerInstr
				m.Stats.Instrs++
				p.PC = int(fi.Base)
				if m.opNewRecord(p, fi.Type.ID(), int(fi.B), fi.Val) {
					m.budgetFault(p, int(fi.Base)+1, 1, steps)
				}
				return
			}
			m.budgetFault(p, int(fi.Base), n, steps)
			return
		}
		m.Cycles += n * m.Cost.PerInstr
		m.Stats.Instrs += n
		p.PC = int(fi.Base)

		switch fi.Op {
		case ir.FNop:
			pcF++
		case ir.FConst:
			p.push(Value{Int: fi.Val})
			pcF++
		case ir.FSelfID:
			p.push(IntVal(int64(p.ID)))
			pcF++
		case ir.FLoad:
			p.push(p.Locals[fi.A])
			pcF++
		case ir.FStore:
			p.Locals[fi.A] = p.pop()
			pcF++
		case ir.FDup:
			p.push(p.Stack[len(p.Stack)-1])
			pcF++
		case ir.FPop:
			p.pop()
			pcF++

		case ir.FNeg:
			v := p.pop()
			p.push(IntVal(-v.Int))
			pcF++
		case ir.FNot:
			v := p.pop()
			p.push(BoolVal(v.Int == 0))
			pcF++
		case ir.FAdd:
			y := p.pop()
			x := p.pop()
			p.push(IntVal(x.Int + y.Int))
			pcF++
		case ir.FSub:
			y := p.pop()
			x := p.pop()
			p.push(IntVal(x.Int - y.Int))
			pcF++
		case ir.FMul:
			y := p.pop()
			x := p.pop()
			p.push(IntVal(x.Int * y.Int))
			pcF++
		case ir.FDiv:
			y := p.pop()
			x := p.pop()
			if y.Int == 0 {
				m.divFault(p, false)
				return
			}
			p.push(IntVal(x.Int / y.Int))
			pcF++
		case ir.FMod:
			y := p.pop()
			x := p.pop()
			if y.Int == 0 {
				m.divFault(p, true)
				return
			}
			p.push(IntVal(x.Int % y.Int))
			pcF++
		case ir.FEq:
			y := p.pop()
			x := p.pop()
			p.push(BoolVal(x.Int == y.Int))
			pcF++
		case ir.FNe:
			y := p.pop()
			x := p.pop()
			p.push(BoolVal(x.Int != y.Int))
			pcF++
		case ir.FLt:
			y := p.pop()
			x := p.pop()
			p.push(BoolVal(x.Int < y.Int))
			pcF++
		case ir.FLe:
			y := p.pop()
			x := p.pop()
			p.push(BoolVal(x.Int <= y.Int))
			pcF++
		case ir.FGt:
			y := p.pop()
			x := p.pop()
			p.push(BoolVal(x.Int > y.Int))
			pcF++
		case ir.FGe:
			y := p.pop()
			x := p.pop()
			p.push(BoolVal(x.Int >= y.Int))
			pcF++

		case ir.FJump:
			pcF = int(fi.A)
		case ir.FJumpFalse:
			if p.pop().Int == 0 {
				pcF = int(fi.A)
			} else {
				pcF++
			}
		case ir.FJumpTrue:
			if p.pop().Int != 0 {
				pcF = int(fi.A)
			} else {
				pcF++
			}

		case ir.FNewRecord:
			if !m.opNewRecord(p, int(fi.A), int(fi.B), fi.Val) {
				return
			}
			pcF++
		case ir.FNewUnion:
			r, ok := m.opNewUnion(p, p.pop(), int(fi.A), int(fi.B), fi.Val&1 != 0)
			if !ok {
				return
			}
			p.push(r)
			pcF++
		case ir.FNewArray:
			init := p.pop()
			r, ok := m.opNewArray(p, p.pop(), init, int(fi.A))
			if !ok {
				return
			}
			p.push(r)
			pcF++

		case ir.FGetField:
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			p.push(o.Elems[fi.A])
			pcF++
		case ir.FSetField:
			v := p.pop()
			if !m.opSetField(p, p.pop(), v, int(fi.A)) {
				return
			}
			pcF++
		case ir.FGetIndex:
			i := p.pop()
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			if i.Int < 0 || int(i.Int) >= len(o.Elems) {
				m.indexFault(p, i.Int, len(o.Elems))
				return
			}
			p.push(o.Elems[i.Int])
			pcF++
		case ir.FSetIndex:
			v := p.pop()
			i := p.pop()
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			if i.Int < 0 || int(i.Int) >= len(o.Elems) {
				m.indexFault(p, i.Int, len(o.Elems))
				return
			}
			o.Elems[i.Int] = v
			pcF++
		case ir.FUnionGet:
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			if o.Tag != int(fi.A) {
				m.tagFault(p, o.Tag, int(fi.A))
				return
			}
			p.push(o.Elems[0])
			pcF++

		case ir.FLink:
			if !m.opLink(p, p.pop()) {
				return
			}
			pcF++
		case ir.FUnlink:
			if !m.opUnlink(p, p.pop()) {
				return
			}
			pcF++
		case ir.FCastCopy:
			r, ok := m.opCastCopy(p, p.pop(), int(fi.A))
			if !ok {
				return
			}
			p.push(r)
			pcF++
		case ir.FCastReuse:
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			o.Type = fi.Type
			p.push(RefVal(o))
			pcF++

		case ir.FAssert:
			if p.pop().Int == 0 {
				m.assertFault(p, int(fi.A))
				return
			}
			pcF++

		case ir.FHalt:
			p.Status = PHalted
			return

		case ir.FSend, ir.FSendCommit, ir.FLoadSend, ir.FConstSend:
			var v Value
			var chanID, flags int
			switch fi.Op {
			case ir.FSend, ir.FSendCommit:
				v = p.pop()
				chanID, flags = int(fi.A), int(fi.B)
			case ir.FLoadSend:
				v = p.Locals[fi.A]
				chanID, flags = int(fi.B), int(fi.C)
				p.PC = int(fi.Base) + 1 // the Send component's pc
			case ir.FConstSend:
				v = Value{Int: fi.Val}
				chanID, flags = int(fi.B), int(fi.C)
				p.PC = int(fi.Base) + 1
			}
			if !m.opSend(p, v, chanID, flags, int(fi.Base)+int(fi.N), fi.Op == ir.FSendCommit) {
				return
			}
			pcF = int(fp.Map[p.ResumePC])

		case ir.FRecv:
			if !m.opRecv(p, int(fi.A), int(fi.B), int(fi.Base)+1) {
				return
			}
			pcF = int(fp.Map[p.ResumePC])

		case ir.FSendDir:
			next, ok := m.fusedSendDir(p, fp, fi, p.pop(), int(fi.B))
			if !ok {
				return
			}
			pcF = next

		case ir.FRecvDir:
			if m.sched == nil {
				// No static schedule (manual or queue mode): the generic path.
				if !m.opRecv(p, int(fi.A), int(fi.B), int(fi.Base)+int(fi.N)) {
					return
				}
				pcF = int(fp.Map[p.ResumePC])
				continue
			}
			// Static rendezvous: the schedule proves process fi.C is the
			// only sender on this channel, so the partner search inspects
			// it alone, for the one MaskCheck the narrowed phase-1 scan
			// pays.
			chanID := int(fi.A)
			p.WaitChan = chanID
			p.WaitPort = int(fi.B)
			p.ResumePC = int(fi.Base) + int(fi.N)
			m.chargeEv(obs.KindMaskCheck, m.Cost.MaskCheck)
			m.Stats.MaskChecks++
			s := m.Procs[fi.C]
			if s.Status == PBlockedSend && s.WaitChan == chanID &&
				m.deliver(s.Pending, s.PendingFlags, s.ID, p, p.WaitPort) {
				if m.flt != nil {
					return
				}
				m.Stats.DirectXfers++
				m.unblock(s, s.ResumePC)
				pcF = int(fp.Map[p.ResumePC])
				continue
			}
			if m.flt != nil {
				return
			}
			// The baseline's failed search pays a second MaskCheck (the
			// phase-2 alt-arm pass) before blocking.
			m.chargeEv(obs.KindMaskCheck, m.Cost.MaskCheck)
			m.Stats.MaskChecks++
			p.Status = PBlockedRecv
			return

		case ir.FXferRec:
			// The NewRecord half can fault and emits an alloc trace, both of
			// which must observe the meter exactly as the baseline leaves it
			// after one instruction — so the prologue's two-instruction bulk
			// charge is unwound to one here, and the Send's instruction is
			// charged once the record exists.
			m.Cycles -= m.Cost.PerInstr
			m.Stats.Instrs--
			if !m.opNewRecord(p, fi.Type.ID(), int(fi.B), fi.Val) {
				return
			}
			m.Cycles += m.Cost.PerInstr
			m.Stats.Instrs++
			p.PC = int(fi.Base) + 1
			flags := 0
			if fi.Sense {
				flags = ir.FlagFreeAfter
			}
			next, ok := m.fusedSendDir(p, fp, fi, p.pop(), flags)
			if !ok {
				return
			}
			pcF = next

		case ir.FAlt:
			next, cont := m.opAlt(p, int(fi.A))
			if !cont {
				return // parked (blocked alt or collapsed blocked recv) or faulted
			}
			// altStep's continuation pcs (arm eval/body starts) are entry
			// points, so their translation is defined.
			pcF = int(fp.Map[next])

		// Superinstructions.
		case ir.FIncrLocal:
			p.Locals[fi.A] = Value{Int: p.Locals[fi.A].Int + fi.Val}
			pcF++
		case ir.FLCCmpBr:
			if fusedCmp(fi.Sub, p.Locals[fi.A].Int, fi.Val) == fi.Sense {
				pcF = int(fi.B)
			} else {
				pcF++
			}
		case ir.FLLCmpBr:
			if fusedCmp(fi.Sub, p.Locals[fi.A].Int, p.Locals[fi.C].Int) == fi.Sense {
				pcF = int(fi.B)
			} else {
				pcF++
			}
		case ir.FCmpBr:
			y := p.pop()
			x := p.pop()
			if fusedCmp(fi.Sub, x.Int, y.Int) == fi.Sense {
				pcF = int(fi.B)
			} else {
				pcF++
			}
		case ir.FLCBin:
			r, ok := fusedBin(fi.Sub, p.Locals[fi.A].Int, fi.Val)
			if !ok {
				p.PC = int(fi.Base) + 2 // the Div/Mod component's pc
				m.divFault(p, fi.Sub == ir.Mod)
				return
			}
			p.push(r)
			pcF++
		case ir.FLLBin:
			r, ok := fusedBin(fi.Sub, p.Locals[fi.A].Int, p.Locals[fi.C].Int)
			if !ok {
				p.PC = int(fi.Base) + 2
				m.divFault(p, fi.Sub == ir.Mod)
				return
			}
			p.push(r)
			pcF++
		case ir.FLCBinSt:
			r, _ := fusedBin(fi.Sub, p.Locals[fi.A].Int, fi.Val) // Sub is pure here
			p.Locals[fi.B] = r
			pcF++
		case ir.FLLBinSt:
			r, _ := fusedBin(fi.Sub, p.Locals[fi.A].Int, p.Locals[fi.C].Int)
			p.Locals[fi.B] = r
			pcF++
		case ir.FConstSt:
			p.Locals[fi.B] = Value{Int: fi.Val}
			pcF++
		case ir.FMove:
			p.Locals[fi.B] = p.Locals[fi.A]
			pcF++
		case ir.FLoadField:
			v := p.Locals[fi.A]
			p.PC = int(fi.Base) + 1 // the GetField component's pc
			o := m.checkObj(v, p)
			if o == nil {
				return
			}
			p.push(o.Elems[fi.B])
			pcF++

		default:
			m.setFault(&Fault{Kind: FaultInternal, Msg: fmt.Sprintf("bad fused opcode %s", fi.Op)}, p)
			return
		}
	}
}

// fusedSendDir performs the send half of FSendDir/FXferRec: v with the
// Send flags on the channel fi.A, resuming after the group. It returns
// the fused pc to continue at and true, or false when p blocked or
// faulted (the caller returns). With the static schedule live, the
// partner search inspects only process fi.C — the schedule proves it is
// the only process with a receive site on the channel — for the same
// single MaskCheck the narrowed scan pays.
func (m *Machine) fusedSendDir(p *ProcInst, fp *ir.FusedProc, fi *ir.FInstr, v Value, flags int) (int, bool) {
	chanID, resumePC := int(fi.A), int(fi.Base)+int(fi.N)
	if m.sched == nil {
		// No static schedule (manual mode, wait queues): the generic send path.
		if !m.opSend(p, v, chanID, flags, resumePC, false) {
			return 0, false
		}
		return int(fp.Map[resumePC]), true
	}
	p.Pending = v
	p.PendingFlags = flags
	p.WaitChan = chanID
	p.ResumePC = resumePC
	m.chargeEv(obs.KindMaskCheck, m.Cost.MaskCheck)
	m.Stats.MaskChecks++
	r := m.Procs[fi.C]
	if r.Status == PBlockedRecv && r.WaitChan == chanID &&
		m.deliver(v, flags, p.ID, r, r.WaitPort) {
		if m.flt != nil {
			return 0, false
		}
		m.Stats.DirectXfers++
		m.unblock(r, r.ResumePC)
		p.Pending = Value{}
		return int(fp.Map[resumePC]), true
	}
	if m.flt != nil {
		return 0, false
	}
	// The channel is internal (fused pairs always are), so there is no
	// external binding to consult: block.
	p.Status = PBlockedSend
	return 0, false
}

// fusedCmp evaluates a comparison operator on raw ints.
func fusedCmp(op ir.Op, x, y int64) bool {
	switch op {
	case ir.Eq:
		return x == y
	case ir.Ne:
		return x != y
	case ir.Lt:
		return x < y
	case ir.Le:
		return x <= y
	case ir.Gt:
		return x > y
	default: // ir.Ge
		return x >= y
	}
}

// fusedBin evaluates a binary operator; ok is false on division or modulo
// by zero (the caller faults without pushing).
func fusedBin(op ir.Op, x, y int64) (Value, bool) {
	switch op {
	case ir.Add:
		return IntVal(x + y), true
	case ir.Sub:
		return IntVal(x - y), true
	case ir.Mul:
		return IntVal(x * y), true
	case ir.Div:
		if y == 0 {
			return Value{}, false
		}
		return IntVal(x / y), true
	case ir.Mod:
		if y == 0 {
			return Value{}, false
		}
		return IntVal(x % y), true
	default:
		return BoolVal(fusedCmp(op, x, y)), true
	}
}
