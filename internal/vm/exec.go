package vm

import (
	"fmt"

	"esplang/internal/ir"
	"esplang/internal/obs"
	"esplang/internal/types"
)

// push/pop are the interpreter's stack primitives. They are methods (not
// per-exec closures) so a scheduling quantum allocates nothing: the old
// closure trio (push/pop/checkObj) cost three heap allocations every time
// a process was resumed, which dominated short quanta.
func (p *ProcInst) push(v Value) { p.Stack = append(p.Stack, v) }

func (p *ProcInst) pop() Value {
	n := len(p.Stack) - 1
	v := p.Stack[n]
	p.Stack = p.Stack[:n]
	return v
}

// checkObj verifies the object is live before access: the memory safety
// property the verifier checks exhaustively (§5.2).
func (m *Machine) checkObj(v Value, p *ProcInst) *Object {
	if !v.IsRef || v.Ref == nil {
		m.setFault(&Fault{Kind: FaultInternal, Msg: "scalar where reference expected"}, p)
		return nil
	}
	if v.Ref.Freed {
		m.setFault(&Fault{Kind: FaultUseAfterFree,
			Msg: fmt.Sprintf("access to freed object %s", v.Ref)}, p)
		return nil
	}
	return v.Ref
}

// alloc allocates an n-element object of type t for p (nil = the external
// environment) and pays for it — the Alloc charge, Stats.Allocs and the
// alloc event — or faults when the live-object bound is exhausted. Every
// allocation but deepCopy's (which charges per copied word) goes through
// it.
func (m *Machine) alloc(p *ProcInst, t *types.Type, n int) *Object {
	o := m.heap.Alloc(t, n)
	if o == nil {
		m.setFault(&Fault{Kind: FaultOutOfObjects, Msg: "allocation failed: live-object bound exceeded"}, p)
		return nil
	}
	m.chargeEv(obs.KindAlloc, m.Cost.Alloc)
	m.Stats.Allocs++
	proc := -1
	if p != nil {
		proc = p.ID
	}
	m.traceAlloc(proc)
	return o
}

// link and unlink are the reference-count operations of the opcodes and
// of receive binding: the heap op, its fault, and the RefOp charge.
// Both return false on fault. deliver's FreeAfter unlinks keep their own
// accounting (they charge even when the unlink faults).
func (m *Machine) link(p *ProcInst, o *Object) bool {
	if f := m.heap.Link(o); f != nil {
		m.setFault(f, p)
		return false
	}
	m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
	m.Stats.RefOps++
	return true
}

func (m *Machine) unlink(p *ProcInst, o *Object) bool {
	if f := m.heap.Unlink(o); f != nil {
		m.setFault(f, p)
		return false
	}
	m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
	m.Stats.RefOps++
	return true
}

// indexFault and tagFault are the faults of the charge-free accessors,
// which every tier keeps inline.
func (m *Machine) indexFault(p *ProcInst, i int64, n int) {
	m.setFault(&Fault{Kind: FaultIndexOOB,
		Msg: fmt.Sprintf("index %d out of bounds for array of %d", i, n)}, p)
}

func (m *Machine) tagFault(p *ProcInst, tag, want int) {
	m.setFault(&Fault{Kind: FaultTagMismatch,
		Msg: fmt.Sprintf("union has tag %d, pattern requires %d", tag, want)}, p)
}

// exec runs process p until it blocks, halts, or faults, dispatching to
// the engine the machine was configured with. The fused engine bows out
// while a profiler is installed: per-line cycle attribution needs the
// per-instruction charge points of the baseline loop, and profiled runs
// are not on the hot path.
func (m *Machine) exec(p *ProcInst) {
	if m.compiled != nil && m.prof == nil {
		m.compiled[p.ID](m, p)
		return
	}
	if m.fused != nil && m.prof == nil {
		m.execFused(p)
		return
	}
	m.execBase(p)
}

// execBase is the baseline interpreter and the differential-testing
// oracle for the fused engine. It implements the non-preemptive execution
// discipline of §6.1: between blocking points a process runs
// uninterrupted. Every effectful opcode runs through the CG* method the
// compiled tier calls too (compiled.go), so the three tiers share one
// body per operation; only the pure and charge-free cases are inline.
func (m *Machine) execBase(p *ProcInst) {
	code := p.Def.Code
	pc := p.PC
	var steps int64

	for m.flt == nil {
		steps++
		if steps > m.Config.StepBudget {
			m.CGBudgetFault(p, pc, 1, steps)
			return
		}
		in := code[pc]
		if m.prof != nil {
			m.curLine = in.Pos.Line
		}
		m.chargeEv(obs.KindInstr, m.Cost.PerInstr)
		m.Stats.Instrs++
		p.PC = pc

		switch in.Op {
		case ir.Nop:
			pc++
		case ir.Const:
			p.push(Value{Int: in.Val})
			pc++
		case ir.SelfID:
			p.push(IntVal(int64(p.ID)))
			pc++
		case ir.LoadLocal:
			p.push(p.Locals[in.A])
			pc++
		case ir.StoreLocal:
			p.Locals[in.A] = p.pop()
			pc++
		case ir.Dup:
			p.push(p.Stack[len(p.Stack)-1])
			pc++
		case ir.Pop:
			p.pop()
			pc++

		case ir.Neg:
			v := p.pop()
			p.push(IntVal(-v.Int))
			pc++
		case ir.Not:
			v := p.pop()
			p.push(BoolVal(v.Int == 0))
			pc++
		case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod,
			ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge:
			y := p.pop()
			x := p.pop()
			var r Value
			switch in.Op {
			case ir.Add:
				r = IntVal(x.Int + y.Int)
			case ir.Sub:
				r = IntVal(x.Int - y.Int)
			case ir.Mul:
				r = IntVal(x.Int * y.Int)
			case ir.Div:
				if y.Int == 0 {
					m.CGDivFault(p, false)
					return
				}
				r = IntVal(x.Int / y.Int)
			case ir.Mod:
				if y.Int == 0 {
					m.CGDivFault(p, true)
					return
				}
				r = IntVal(x.Int % y.Int)
			case ir.Eq:
				r = BoolVal(x.Int == y.Int)
			case ir.Ne:
				r = BoolVal(x.Int != y.Int)
			case ir.Lt:
				r = BoolVal(x.Int < y.Int)
			case ir.Le:
				r = BoolVal(x.Int <= y.Int)
			case ir.Gt:
				r = BoolVal(x.Int > y.Int)
			case ir.Ge:
				r = BoolVal(x.Int >= y.Int)
			}
			p.push(r)
			pc++

		case ir.Jump:
			pc = in.A
		case ir.JumpIfFalse:
			if p.pop().Int == 0 {
				pc = in.A
			} else {
				pc++
			}
		case ir.JumpIfTrue:
			if p.pop().Int != 0 {
				pc = in.A
			} else {
				pc++
			}

		case ir.NewRecord:
			if !m.CGNewRecord(p, in.A, in.B, in.Val) {
				return
			}
			pc++
		case ir.NewUnion:
			r, ok := m.CGNewUnion(p, p.pop(), in.A, in.B, in.Val&1 != 0)
			if !ok {
				return
			}
			p.push(r)
			pc++
		case ir.NewArray:
			init := p.pop()
			r, ok := m.CGNewArray(p, p.pop(), init, in.A)
			if !ok {
				return
			}
			p.push(r)
			pc++

		case ir.GetField:
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			p.push(o.Elems[in.A])
			pc++
		case ir.SetField:
			v := p.pop()
			if !m.CGSetField(p, p.pop(), v, in.A) {
				return
			}
			pc++
		case ir.GetIndex:
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
			pc++
		case ir.SetIndex:
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
			pc++
		case ir.UnionGet:
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			if o.Tag != in.A {
				m.tagFault(p, o.Tag, in.A)
				return
			}
			p.push(o.Elems[0])
			pc++

		case ir.Link:
			if !m.CGLink(p, p.pop()) {
				return
			}
			pc++
		case ir.Unlink:
			if !m.CGUnlink(p, p.pop()) {
				return
			}
			pc++
		case ir.CastCopy:
			r, ok := m.CGCastCopy(p, p.pop(), in.A)
			if !ok {
				return
			}
			p.push(r)
			pc++
		case ir.CastReuse:
			// Optimizer-inserted: the source object is dead afterwards, so
			// it is retyped in place (§4.2: "the compiler can avoid
			// creating a new object").
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			o.Type = m.Prog.Universe.ByID(in.A)
			p.push(RefVal(o))
			pc++

		case ir.Assert:
			if p.pop().Int == 0 {
				m.CGAssertFault(p, in.A)
				return
			}
			pc++

		case ir.Halt:
			p.Status = PHalted
			p.PC = pc
			return

		case ir.Send, ir.SendCommit:
			if !m.CGSend(p, p.pop(), in.A, in.B, pc+1, in.Op == ir.SendCommit) {
				return
			}
			pc = p.ResumePC

		case ir.Recv:
			if !m.CGRecv(p, in.A, in.B, pc+1) {
				return
			}
			pc = p.ResumePC

		case ir.Alt:
			next, cont := m.CGAlt(p, in.A)
			if !cont {
				return // parked (blocked alt or collapsed blocked recv) or faulted
			}
			pc = next

		default:
			m.setFault(&Fault{Kind: FaultInternal, Msg: fmt.Sprintf("bad opcode %s", in.Op)}, p)
			return
		}
	}
}
