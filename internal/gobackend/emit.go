// Package gobackend is the compiled engine's ahead-of-time Go backend:
// it translates verified ESP IR into a self-contained generated Go main
// package — one native function per process, plus a line-delimited JSON
// harness — builds it with the host toolchain (build.go), and drives the
// resulting binary over a subprocess protocol (run.go).
//
// The generated step functions run inside the real vm.Machine: the
// machine is configured with Engine=EngineCompiled and the functions are
// installed with Machine.InstallCompiled, so the scheduler, rendezvous
// matcher, heap, external bindings, cost model, and observability stack
// are the interpreter's own code. Only straight-line instruction bodies
// are compiled: locals and operand-stack slots become Go variables,
// basic blocks become labeled code with gotos, and every effectful or
// blocking instruction calls the CG* bridge methods of internal/vm,
// the same methods the baseline and fused interpreters run for it.
// §6 cycle accounting is kept as an overlay: pure instruction runs are
// charged in batches at segment entry (same totals, same order relative
// to every non-instruction charge), so Stats, the cycle meter, faults,
// and trace events stay bit-identical to the baseline oracle.
//
// On top of the per-process functions, statically-matched process pairs
// are compiled a second time into one fused function: when the
// optimizer's rendezvous schedule proves two processes only ever talk to
// each other on internal channels (every site a plain scalar Send/Recv
// with an unconditional receive pattern, no alt), both bodies are
// emitted into a single function where a rendezvous is an inline
// transfer and blocking on the partner is a direct goto into the
// partner's code — a deferred context switch (vm.CGXfer) that performs
// exactly the scheduler's bookkeeping without the ready-queue round
// trip. The fused path only runs on a quiet machine (vm.CGQuiet: no
// recorder, metrics, or profiler); the generated dispatchers
// fall back to the general per-process functions otherwise, so observed
// runs still emit every event the baseline does.
package gobackend

import (
	"fmt"
	"sort"
	"strings"

	esplang "esplang"
	"esplang/internal/analysis"
	"esplang/internal/ir"
)

// Options records the esplang.CompileOptions the emitted harness must
// replay: the child process recompiles the embedded source itself (it
// can only import the public esplang package), and compilation is
// deterministic, so replaying the same options reproduces the exact IR
// the step functions were generated from.
type Options struct {
	NoOptimize bool
	VerifyIR   bool
}

// Emit translates prog into the complete source text of a generated
// main package. prog must have been compiled with the options in o.
func Emit(prog *esplang.Program, o Options) (string, error) {
	p := prog.IR
	sched := p.Schedule
	if sched == nil {
		sched = analysis.ComputeSchedule(p)
	}
	e := &emitter{prog: p, sched: sched}

	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by espc -emit-go for program %q. DO NOT EDIT.\n", prog.Name)
	b.WriteString(genHeader)
	fmt.Fprintf(&b, "const progName = %q\n", prog.Name)
	fmt.Fprintf(&b, "const progFile = %q\n", prog.File)
	fmt.Fprintf(&b, "const progNoOptimize = %v\n", o.NoOptimize)
	fmt.Fprintf(&b, "const progVerifyIR = %v\n\n", o.VerifyIR)
	fmt.Fprintf(&b, "const progSource = %q\n\n", prog.Source)

	pairs := e.fusedPairs()
	fusedOf := map[int]int{}
	for _, pr := range pairs {
		fusedOf[pr[0]] = pr[1]
		fusedOf[pr[1]] = pr[0]
	}
	for _, pr := range pairs {
		fn, err := e.emitFused(p.Procs[pr[0]], p.Procs[pr[1]])
		if err != nil {
			return "", fmt.Errorf("gobackend: fused %s+%s: %w",
				p.Procs[pr[0]].Name, p.Procs[pr[1]].Name, err)
		}
		b.WriteString(fn)
	}

	names := make([]string, len(p.Procs))
	for i, pr := range p.Procs {
		names[i] = fmt.Sprintf("step%d", pr.ID)
		if partner, fused := fusedOf[pr.ID]; fused {
			fn, err := e.emitProc(pr, fmt.Sprintf("step%dgen", pr.ID))
			if err != nil {
				return "", fmt.Errorf("gobackend: proc %s: %w", pr.Name, err)
			}
			b.WriteString(fn)
			a, bb := pr.ID, partner
			if bb < a {
				a, bb = bb, a
			}
			fmt.Fprintf(&b, "func step%d(m *esplang.Machine, p *esplang.ProcInst) {\n"+
				"\tif m.CGQuiet() {\n\t\tfused%dx%d(m, p)\n\t\treturn\n\t}\n"+
				"\tstep%dgen(m, p)\n}\n\n", pr.ID, a, bb, pr.ID)
			continue
		}
		fn, err := e.emitProc(pr, names[i])
		if err != nil {
			return "", fmt.Errorf("gobackend: proc %s: %w", pr.Name, err)
		}
		b.WriteString(fn)
	}
	fmt.Fprintf(&b, "var compiledProcs = []esplang.CompiledProc{%s}\n", strings.Join(names, ", "))
	b.WriteString(genHarness)
	return b.String(), nil
}

type emitter struct {
	prog  *ir.Program
	sched *ir.Schedule
}

// procInfo is the static analysis of one process body.
type procInfo struct {
	// depth[pc] is the operand-stack depth before executing pc
	// (-1: unreachable).
	depth []int
	// entry marks pcs the scheduler can resume at (dispatch cases):
	// 0, Send/Recv continuations, and alt arm entry points.
	entry map[int]bool
	// label marks pcs that need a Go label: entries plus jump targets.
	label map[int]bool
	// segN[pc] is the instruction count of the charge segment starting
	// at pc (absent: pc does not start a segment).
	segN map[int]int64
	// hasAlt reports a reachable Alt (the function needs the dispatch
	// label for re-entering the switch).
	hasAlt bool
}

// effect returns the pop/push counts of a straight-line instruction.
func effect(in ir.Instr) (pop, push int) {
	switch in.Op {
	case ir.Const, ir.SelfID, ir.LoadLocal, ir.Dup:
		return 0, 1
	case ir.StoreLocal, ir.Pop, ir.Link, ir.Unlink, ir.Assert,
		ir.JumpIfFalse, ir.JumpIfTrue:
		return 1, 0
	case ir.Neg, ir.Not, ir.GetField, ir.UnionGet, ir.CastCopy, ir.CastReuse, ir.NewUnion:
		return 1, 1
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod,
		ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge,
		ir.NewArray, ir.GetIndex:
		return 2, 1
	case ir.SetField:
		return 2, 0
	case ir.SetIndex:
		return 3, 0
	case ir.NewRecord:
		return in.B, 1
	case ir.Send, ir.SendCommit:
		return 1, 0
	case ir.Nop, ir.Jump, ir.Recv, ir.Alt, ir.Halt:
		return 0, 0
	}
	return 0, 0
}

// endsSegment reports whether op terminates a batched charge segment:
// control flow leaves, or the instruction can fault, charge non-Instr
// cycles, or emit a trace event, so every later instruction's charge
// must come after it.
func endsSegment(op ir.Op) bool {
	switch op {
	case ir.Jump, ir.JumpIfFalse, ir.JumpIfTrue, ir.Halt,
		ir.Div, ir.Mod,
		ir.NewRecord, ir.NewUnion, ir.NewArray,
		ir.GetField, ir.SetField, ir.GetIndex, ir.SetIndex, ir.UnionGet,
		ir.Link, ir.Unlink, ir.CastCopy, ir.CastReuse,
		ir.Assert, ir.Send, ir.SendCommit, ir.Recv, ir.Alt:
		return true
	}
	return false
}

// analyze runs the reachability + stack-depth dataflow over pr and
// derives entries, labels, and charge segments.
func analyze(pr *ir.Proc) (*procInfo, error) {
	n := len(pr.Code)
	pi := &procInfo{
		depth: make([]int, n),
		entry: map[int]bool{},
		label: map[int]bool{},
		segN:  map[int]int64{},
	}
	for i := range pi.depth {
		pi.depth[i] = -1
	}
	if n == 0 {
		return pi, nil
	}
	pi.entry[0] = true

	type item struct{ pc, d int }
	work := []item{{0, 0}}
	push := func(pc, d int) error {
		if pc < 0 || pc >= n {
			return fmt.Errorf("jump target %d out of range", pc)
		}
		if d < 0 || d > pr.MaxStack {
			return fmt.Errorf("stack depth %d at pc %d outside [0,%d]", d, pc, pr.MaxStack)
		}
		work = append(work, item{pc, d})
		return nil
	}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if pi.depth[it.pc] >= 0 {
			if pi.depth[it.pc] != it.d {
				return nil, fmt.Errorf("inconsistent stack depth at pc %d: %d vs %d", it.pc, pi.depth[it.pc], it.d)
			}
			continue
		}
		pi.depth[it.pc] = it.d
		in := pr.Code[it.pc]
		pop, pushN := effect(in)
		if it.d < pop {
			return nil, fmt.Errorf("stack underflow at pc %d (%v)", it.pc, in.Op)
		}
		next := it.d - pop + pushN
		var err error
		switch in.Op {
		case ir.Jump:
			err = push(in.A, next)
		case ir.JumpIfFalse, ir.JumpIfTrue:
			if err = push(in.A, next); err == nil {
				err = push(it.pc+1, next)
			}
		case ir.Halt:
		case ir.Alt:
			pi.hasAlt = true
			if in.A < 0 || in.A >= len(pr.Alts) {
				return nil, fmt.Errorf("alt index %d out of range at pc %d", in.A, it.pc)
			}
			for _, arm := range pr.Alts[in.A].Arms {
				if arm.IsSend {
					err = push(arm.EvalPC, next)
				} else {
					err = push(arm.BodyPC, next)
				}
				if err != nil {
					break
				}
			}
		default:
			err = push(it.pc+1, next)
		}
		if err != nil {
			return nil, err
		}
	}

	// Entries and labels from the reachable instructions.
	for pc, in := range pr.Code {
		if pi.depth[pc] < 0 {
			continue
		}
		switch in.Op {
		case ir.Send, ir.Recv:
			pi.entry[pc+1] = true
		case ir.Jump, ir.JumpIfFalse, ir.JumpIfTrue:
			pi.label[in.A] = true
		case ir.Alt:
			for _, arm := range pr.Alts[in.A].Arms {
				if arm.IsSend {
					pi.entry[arm.EvalPC] = true
				} else {
					pi.entry[arm.BodyPC] = true
				}
			}
		}
	}
	for pc := range pi.entry {
		if pc >= n || pi.depth[pc] < 0 {
			return nil, fmt.Errorf("resume point %d unreachable", pc)
		}
		pi.label[pc] = true
	}

	// Charge segments: a segment starts at every label and after every
	// segment-ending instruction; it spans the run of reachable pcs up
	// to and including the next segment-ending instruction.
	cur := -1
	for pc := 0; pc < n; pc++ {
		if pi.depth[pc] < 0 {
			cur = -1
			continue
		}
		if cur < 0 || pi.label[pc] {
			cur = pc
		}
		pi.segN[cur]++
		if endsSegment(pr.Code[pc].Op) {
			cur = -1
		}
	}
	return pi, nil
}

// direct is the static lowering decision for one Send or Recv site:
// when the optimizer's rendezvous schedule proves the channel is a
// statically-matched pair of plain scalar sites with an unconditional
// receive pattern, the site compiles to the direct-transfer bridge (or,
// inside a fused pair, to the inline transfer).
type direct struct {
	partner int
	port    int
	slot    int
	bind    bool
}

func (e *emitter) sendDirect(procID int, in ir.Instr) *direct {
	if in.Op != ir.Send || e.sched == nil {
		return nil
	}
	pair := e.sched.PairFor(in.A)
	if pair == nil || pair.Sender != procID || pair.Recv == procID {
		return nil
	}
	ch := e.prog.Channels[in.A]
	if ch.Ext != ir.ExtNone || ch.Elem == nil || !ch.Elem.IsScalar() {
		return nil
	}
	if len(pair.RecvPCs) != 1 {
		return nil
	}
	rp := e.prog.Procs[pair.Recv]
	rin := rp.Code[pair.RecvPCs[0]]
	if rin.Op != ir.Recv || rin.A != in.A || rin.B < 0 || rin.B >= len(rp.Ports) {
		return nil
	}
	return patDirect(pair.Recv, rin.B, rp.Ports[rin.B].Pat)
}

func (e *emitter) recvDirect(procID int, pr *ir.Proc, in ir.Instr) *direct {
	if in.Op != ir.Recv || e.sched == nil {
		return nil
	}
	pair := e.sched.PairFor(in.A)
	if pair == nil || pair.Recv != procID || pair.Sender == procID || len(pair.SendPCs) == 0 {
		return nil
	}
	ch := e.prog.Channels[in.A]
	if ch.Ext != ir.ExtNone || ch.Elem == nil || !ch.Elem.IsScalar() {
		return nil
	}
	// Every send site must be a plain Send (the schedule guarantees
	// this; re-check so a future schedule change cannot silently break
	// the fast path's single-partner assumptions).
	sp := e.prog.Procs[pair.Sender]
	for _, spc := range pair.SendPCs {
		if spc < 0 || spc >= len(sp.Code) || sp.Code[spc].Op != ir.Send {
			return nil
		}
	}
	if in.B < 0 || in.B >= len(pr.Ports) {
		return nil
	}
	return patDirect(pair.Sender, in.B, pr.Ports[in.B].Pat)
}

// patDirect accepts the unconditional receive patterns (bind or
// wildcard); anything with a match test keeps the general path.
func patDirect(partner, port int, pat *ir.Pat) *direct {
	if pat == nil {
		return nil
	}
	switch pat.Kind {
	case ir.PatAny:
		return &direct{partner: partner, port: port}
	case ir.PatBind:
		return &direct{partner: partner, port: port, slot: pat.Slot, bind: true}
	}
	return nil
}

// fusedPairs selects disjoint process pairs for fused emission: each
// pair comes from a statically-scheduled channel and both halves pass
// halfEligible. Channels are scanned in id order, so the choice is
// deterministic.
func (e *emitter) fusedPairs() [][2]int {
	if e.sched == nil {
		return nil
	}
	taken := map[int]bool{}
	var out [][2]int
	for id := range e.prog.Channels {
		pair := e.sched.PairFor(id)
		if pair == nil || pair.Sender == pair.Recv {
			continue
		}
		a, b := pair.Sender, pair.Recv
		if a < 0 || b < 0 || a >= len(e.prog.Procs) || b >= len(e.prog.Procs) {
			continue
		}
		if taken[a] || taken[b] {
			continue
		}
		if !e.halfEligible(e.prog.Procs[a], e.prog.Procs[b]) ||
			!e.halfEligible(e.prog.Procs[b], e.prog.Procs[a]) {
			continue
		}
		taken[a], taken[b] = true, true
		if b < a {
			a, b = b, a
		}
		out = append(out, [2]int{a, b})
	}
	return out
}

// halfEligible reports whether x's body is safe for fused emission with
// partner y. The deferred context switch assumes that between an inline
// rendezvous and x's next block point nothing else is pushed on the
// ready queue — so every communication x performs must either be an
// inline transfer with y (internal channel, direct-eligible) or touch
// only external channels (which never unblock a process). Alt is
// excluded outright: its arms can rendezvous with arbitrary partners.
func (e *emitter) halfEligible(x, y *ir.Proc) bool {
	if len(x.Code) == 0 {
		return false
	}
	for _, in := range x.Code {
		switch in.Op {
		case ir.Alt:
			return false
		case ir.Send, ir.SendCommit:
			if e.prog.Channels[in.A].Ext != ir.ExtNone {
				continue
			}
			d := e.sendDirect(x.ID, in)
			if d == nil || d.partner != y.ID {
				return false
			}
		case ir.Recv:
			if e.prog.Channels[in.A].Ext != ir.ExtNone {
				continue
			}
			d := e.recvDirect(x.ID, x, in)
			if d == nil || d.partner != y.ID {
				return false
			}
		}
	}
	return true
}

// scalarLocal reports that slot i of pr is statically scalar-typed —
// a compiler temp (nil LocalType) or a declared int/bool local. A
// scalar slot's Value never has IsRef set or a non-nil Ref, so stores
// to it can write only the Int field: the struct state is identical to
// the baseline's full-Value store, without the pointer write barrier.
func scalarLocal(pr *ir.Proc, i int) bool {
	if i < 0 || i >= len(pr.LocalType) {
		return false
	}
	t := pr.LocalType[i]
	return t == nil || t.IsScalar()
}

// pemit emits one process body. In general mode (fusedHalf nil) the
// names are the classic p/steps/s0/L0 and blocking returns to the
// scheduler; in fused mode every name is prefixed with the half's
// letter and blocking jumps to the half's block handler.
type pemit struct {
	e  *emitter
	pr *ir.Proc
	pi *procInfo

	pre string // "" | "a" | "b": label and variable prefix
	pv  string // proc variable: "p" | "pa" | "pb"

	// Fused-mode fields.
	partner     *ir.Proc
	partnerVar  string // "pb"
	pendPartner string // "pendB": partner is ready but not enqueued
	blockLabel  string // "ablock"
	blockUsed   bool
}

func (h *pemit) fused() bool         { return h.partner != nil }
func (h *pemit) slot(i int) string   { return fmt.Sprintf("%ss%d", h.pre, i) }
func (h *pemit) label(pc int) string { return fmt.Sprintf("%sL%d", h.pre, pc) }
func (h *pemit) steps() string       { return h.pre + "steps" }
func (h *pemit) dispatchLbl() string { return h.pre + "dispatch" }
func (h *pemit) entryLbl() string    { return h.pre + "entry" }
func (h *pemit) blockJump() string {
	h.blockUsed = true
	return h.blockLabel
}

// slotDecls writes the Go variable declarations for the operand-stack
// slots plus the blank assignments that keep unused ones legal.
func (h *pemit) slotDecls(b *strings.Builder) {
	if h.pr.MaxStack == 0 {
		return
	}
	blanks := make([]string, h.pr.MaxStack)
	slots := make([]string, h.pr.MaxStack)
	for i := range slots {
		blanks[i] = "_"
		slots[i] = h.slot(i)
	}
	fmt.Fprintf(b, "\tvar %s esplang.Value\n", strings.Join(slots, ", "))
	fmt.Fprintf(b, "\t%s = %s\n", strings.Join(blanks, ", "), strings.Join(slots, ", "))
}

// dispatch writes the resume switch: one case per scheduler entry point,
// reloading the architectural stack into slot variables.
func (h *pemit) dispatch(b *strings.Builder, dpcVar string) {
	fmt.Fprintf(b, "\tswitch %s {\n", dpcVar)
	entries := make([]int, 0, len(h.pi.entry))
	for pc := range h.pi.entry {
		entries = append(entries, pc)
	}
	sort.Ints(entries)
	for _, pc := range entries {
		fmt.Fprintf(b, "\tcase %d:\n", pc)
		for i := 0; i < h.pi.depth[pc]; i++ {
			fmt.Fprintf(b, "\t\t%s = %s.Stack[%d]\n", h.slot(i), h.pv, i)
		}
		fmt.Fprintf(b, "\t\tgoto %s\n", h.label(pc))
	}
	fmt.Fprintf(b, "\t}\n\tm.CGBadResume(%s, %s)\n\treturn\n", h.pv, dpcVar)
}

// body writes the labeled instruction stream with batched charges.
func (h *pemit) body() (string, error) {
	var b strings.Builder
	for pc := 0; pc < len(h.pr.Code); pc++ {
		if h.pi.depth[pc] < 0 {
			continue
		}
		if h.pi.label[pc] {
			fmt.Fprintf(&b, "%s:\n", h.label(pc))
		}
		if n, isStart := h.pi.segN[pc]; isStart {
			fmt.Fprintf(&b, "\t%s += %d\n", h.steps(), n)
			fmt.Fprintf(&b, "\tif %s > m.Config.StepBudget {\n", h.steps())
			fmt.Fprintf(&b, "\t\tm.CGBudgetFault(%s, %d, %d, %s)\n\t\treturn\n\t}\n", h.pv, pc, n, h.steps())
			fmt.Fprintf(&b, "\tm.Cycles += %d * m.Cost.PerInstr\n", n)
			fmt.Fprintf(&b, "\tm.Stats.Instrs += %d\n", n)
		}
		if err := h.emitInstr(&b, pc); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// spill writes the architectural operand stack back to p.Stack so a
// bridge call sees (and a blocked process keeps) the exact state the
// interpreter would have.
func (h *pemit) spill(b *strings.Builder, d int) {
	// p.Stack is always a prefix of the same backing array, so the
	// reslice only changes the length; skipping it when the length
	// already matches avoids the slice-header pointer store (and its
	// write barrier) on the hot path.
	fmt.Fprintf(b, "\tif len(%s.Stack) != %d {\n\t\t%s.Stack = %s.Stack[:%d]\n\t}\n", h.pv, d, h.pv, h.pv, d)
	for i := 0; i < d; i++ {
		fmt.Fprintf(b, "\t%s.Stack[%d] = %s\n", h.pv, i, h.slot(i))
	}
}

func (h *pemit) emitInstr(b *strings.Builder, pc int) error {
	pr, pi, pv := h.pr, h.pi, h.pv
	in := pr.Code[pc]
	d := pi.depth[pc]
	s := h.slot
	top := s(d - 1)
	binop := func(expr string) {
		fmt.Fprintf(b, "\t%s = %s\n", s(d-2), expr)
	}
	switch in.Op {
	case ir.Nop:
	case ir.Const:
		fmt.Fprintf(b, "\t%s = esplang.Value{Int: %d}\n", s(d), in.Val)
	case ir.SelfID:
		fmt.Fprintf(b, "\t%s = esplang.Value{Int: int64(%s.ID)}\n", s(d), pv)
	case ir.LoadLocal:
		fmt.Fprintf(b, "\t%s = %s.Locals[%d]\n", s(d), pv, in.A)
	case ir.StoreLocal:
		if scalarLocal(pr, in.A) {
			fmt.Fprintf(b, "\t%s.Locals[%d].Int = %s.Int\n", pv, in.A, top)
		} else {
			fmt.Fprintf(b, "\t%s.Locals[%d] = %s\n", pv, in.A, top)
		}
	case ir.Dup:
		fmt.Fprintf(b, "\t%s = %s\n", s(d), top)
	case ir.Pop:
	case ir.Neg:
		fmt.Fprintf(b, "\t%s = esplang.Value{Int: -%s.Int}\n", top, top)
	case ir.Not:
		fmt.Fprintf(b, "\t%s = b2i(%s.Int == 0)\n", top, top)
	case ir.Add:
		binop(fmt.Sprintf("esplang.Value{Int: %s.Int + %s.Int}", s(d-2), top))
	case ir.Sub:
		binop(fmt.Sprintf("esplang.Value{Int: %s.Int - %s.Int}", s(d-2), top))
	case ir.Mul:
		binop(fmt.Sprintf("esplang.Value{Int: %s.Int * %s.Int}", s(d-2), top))
	case ir.Div, ir.Mod:
		op, isMod := "/", "false"
		if in.Op == ir.Mod {
			op, isMod = "%", "true"
		}
		fmt.Fprintf(b, "\tif %s.Int == 0 {\n\t\t%s.PC = %d\n\t\tm.CGDivFault(%s, %s)\n\t\treturn\n\t}\n", top, pv, pc, pv, isMod)
		binop(fmt.Sprintf("esplang.Value{Int: %s.Int %s %s.Int}", s(d-2), op, top))
	case ir.Eq:
		binop(fmt.Sprintf("b2i(%s.Int == %s.Int)", s(d-2), top))
	case ir.Ne:
		binop(fmt.Sprintf("b2i(%s.Int != %s.Int)", s(d-2), top))
	case ir.Lt:
		binop(fmt.Sprintf("b2i(%s.Int < %s.Int)", s(d-2), top))
	case ir.Le:
		binop(fmt.Sprintf("b2i(%s.Int <= %s.Int)", s(d-2), top))
	case ir.Gt:
		binop(fmt.Sprintf("b2i(%s.Int > %s.Int)", s(d-2), top))
	case ir.Ge:
		binop(fmt.Sprintf("b2i(%s.Int >= %s.Int)", s(d-2), top))
	case ir.Jump:
		fmt.Fprintf(b, "\tgoto %s\n", h.label(in.A))
	case ir.JumpIfFalse:
		fmt.Fprintf(b, "\tif %s.Int == 0 {\n\t\tgoto %s\n\t}\n", top, h.label(in.A))
	case ir.JumpIfTrue:
		fmt.Fprintf(b, "\tif %s.Int != 0 {\n\t\tgoto %s\n\t}\n", top, h.label(in.A))
	case ir.NewRecord:
		fmt.Fprintf(b, "\t%s.PC = %d\n", pv, pc)
		h.spill(b, d)
		fmt.Fprintf(b, "\tif !m.CGNewRecord(%s, %d, %d, %d) {\n\t\treturn\n\t}\n", pv, in.A, in.B, in.Val)
		fmt.Fprintf(b, "\t%s = %s.Stack[%d]\n", s(d-in.B), pv, d-in.B)
	case ir.NewUnion:
		fmt.Fprintf(b, "\t%s.PC = %d\n", pv, pc)
		fmt.Fprintf(b, "\tif %s, ok = m.CGNewUnion(%s, %s, %d, %d, %v); !ok {\n\t\treturn\n\t}\n",
			top, pv, top, in.A, in.B, in.Val&1 != 0)
	case ir.NewArray:
		fmt.Fprintf(b, "\t%s.PC = %d\n", pv, pc)
		fmt.Fprintf(b, "\tif %s, ok = m.CGNewArray(%s, %s, %s, %d); !ok {\n\t\treturn\n\t}\n",
			s(d-2), pv, s(d-2), top, in.A)
	case ir.GetField:
		fmt.Fprintf(b, "\t%s.PC = %d\n", pv, pc)
		fmt.Fprintf(b, "\tif %s, ok = m.CGGetField(%s, %s, %d); !ok {\n\t\treturn\n\t}\n", top, pv, top, in.A)
	case ir.SetField:
		fmt.Fprintf(b, "\t%s.PC = %d\n", pv, pc)
		fmt.Fprintf(b, "\tif !m.CGSetField(%s, %s, %s, %d) {\n\t\treturn\n\t}\n", pv, s(d-2), top, in.A)
	case ir.GetIndex:
		fmt.Fprintf(b, "\t%s.PC = %d\n", pv, pc)
		fmt.Fprintf(b, "\tif %s, ok = m.CGGetIndex(%s, %s, %s); !ok {\n\t\treturn\n\t}\n", s(d-2), pv, s(d-2), top)
	case ir.SetIndex:
		fmt.Fprintf(b, "\t%s.PC = %d\n", pv, pc)
		fmt.Fprintf(b, "\tif !m.CGSetIndex(%s, %s, %s, %s) {\n\t\treturn\n\t}\n", pv, s(d-3), s(d-2), top)
	case ir.UnionGet:
		fmt.Fprintf(b, "\t%s.PC = %d\n", pv, pc)
		fmt.Fprintf(b, "\tif %s, ok = m.CGUnionGet(%s, %s, %d); !ok {\n\t\treturn\n\t}\n", top, pv, top, in.A)
	case ir.Link:
		fmt.Fprintf(b, "\t%s.PC = %d\n", pv, pc)
		fmt.Fprintf(b, "\tif !m.CGLink(%s, %s) {\n\t\treturn\n\t}\n", pv, top)
	case ir.Unlink:
		fmt.Fprintf(b, "\t%s.PC = %d\n", pv, pc)
		fmt.Fprintf(b, "\tif !m.CGUnlink(%s, %s) {\n\t\treturn\n\t}\n", pv, top)
	case ir.CastCopy:
		fmt.Fprintf(b, "\t%s.PC = %d\n", pv, pc)
		fmt.Fprintf(b, "\tif %s, ok = m.CGCastCopy(%s, %s, %d); !ok {\n\t\treturn\n\t}\n", top, pv, top, in.A)
	case ir.CastReuse:
		fmt.Fprintf(b, "\t%s.PC = %d\n", pv, pc)
		fmt.Fprintf(b, "\tif %s, ok = m.CGCastReuse(%s, %s, %d); !ok {\n\t\treturn\n\t}\n", top, pv, top, in.A)
	case ir.Assert:
		fmt.Fprintf(b, "\tif %s.Int == 0 {\n\t\t%s.PC = %d\n\t\tm.CGAssertFault(%s, %d)\n\t\treturn\n\t}\n", top, pv, pc, pv, in.A)
	case ir.Halt:
		fmt.Fprintf(b, "\t%s.PC = %d\n\tm.CGHalt(%s)\n", pv, pc, pv)
		if h.fused() {
			fmt.Fprintf(b, "\tgoto %s\n", h.blockJump())
		} else {
			b.WriteString("\treturn\n")
		}
	case ir.Send, ir.SendCommit:
		fmt.Fprintf(b, "\t%s.PC = %d\n", pv, pc)
		h.spill(b, d-1)
		dir := e2dir(h, in)
		if h.fused() && dir != nil && dir.partner == h.partner.ID {
			h.inlineSend(b, pc, in, dir, top)
			return nil
		}
		if !h.fused() && dir != nil {
			fmt.Fprintf(b, "\tif !m.CGSendDirScalar(%s, %s, %d, %d, %d, %d, %d, %d, %v) {\n\t\treturn\n\t}\n",
				pv, top, in.A, in.B, pc+1, dir.partner, dir.port, dir.slot, dir.bind)
			return nil
		}
		fmt.Fprintf(b, "\tif !m.CGSend(%s, %s, %d, %d, %d, %v) {\n", pv, top, in.A, in.B, pc+1, in.Op == ir.SendCommit)
		h.blockReturn(b)
	case ir.Recv:
		fmt.Fprintf(b, "\t%s.PC = %d\n", pv, pc)
		h.spill(b, d)
		dir := e2recvDir(h, in)
		if h.fused() && dir != nil && dir.partner == h.partner.ID {
			h.inlineRecv(b, pc, in, dir)
			return nil
		}
		if !h.fused() && dir != nil {
			fmt.Fprintf(b, "\tif !m.CGRecvDirScalar(%s, %d, %d, %d, %d, %d, %v) {\n\t\treturn\n\t}\n",
				pv, in.A, in.B, pc+1, dir.partner, dir.slot, dir.bind)
			return nil
		}
		fmt.Fprintf(b, "\tif !m.CGRecv(%s, %d, %d, %d) {\n", pv, in.A, in.B, pc+1)
		h.blockReturn(b)
	case ir.Alt:
		if h.fused() {
			return fmt.Errorf("alt at pc %d inside fused emission", pc)
		}
		fmt.Fprintf(b, "\t%s.PC = %d\n", pv, pc)
		h.spill(b, d)
		fmt.Fprintf(b, "\tif n, c := m.CGAlt(%s, %d); c {\n\t\tdpc = n\n\t\tgoto %s\n\t}\n\treturn\n", pv, in.A, h.dispatchLbl())
	default:
		return fmt.Errorf("unsupported opcode %v at pc %d", in.Op, pc)
	}
	return nil
}

func e2dir(h *pemit, in ir.Instr) *direct     { return h.e.sendDirect(h.pr.ID, in) }
func e2recvDir(h *pemit, in ir.Instr) *direct { return h.e.recvDirect(h.pr.ID, h.pr, in) }

// blockReturn closes a general Send/Recv bridge call: in fused mode a
// false return (blocked, or faulted) jumps to the block handler — whose
// deferred transfer is guarded against faults by CGXfer — and in
// general mode it returns to the scheduler.
func (h *pemit) blockReturn(b *strings.Builder) {
	if h.fused() {
		fmt.Fprintf(b, "\t\tgoto %s\n\t}\n", h.blockJump())
		return
	}
	b.WriteString("\t\treturn\n\t}\n")
}

// inlineSend is the fused transcription of vm.CGSendDirScalar plus
// unblock: same charges, same stats, same field writes — but instead of
// enqueueing the woken partner it raises the half's pend flag, consumed
// by the block handler's deferred context switch.
func (h *pemit) inlineSend(b *strings.Builder, pc int, in ir.Instr, dir *direct, top string) {
	pb := h.partnerVar
	b.WriteString("\tm.Cycles += m.Cost.MaskCheck\n\tm.Stats.MaskChecks++\n")
	fmt.Fprintf(b, "\tif %s.Status == esplang.PBlockedRecv && %s.WaitChan == %d && %s.WaitPort == %d {\n",
		pb, pb, in.A, pb, dir.port)
	b.WriteString("\t\tm.Cycles += m.Cost.PatternNode + m.Cost.Rendezvous\n")
	b.WriteString("\t\tm.Stats.PatternNodes++\n\t\tm.Stats.Rendezvous++\n")
	// The channel element is scalar, so every Value moving through this
	// site has IsRef=false, Ref=nil — and the fields being overwritten
	// (a scalar-typed local, a Pending that is always cleared after a
	// completed send) already hold such a Value. Writing only the Int
	// field leaves the struct bit-identical to the baseline's full
	// store while avoiding the pointer write barrier.
	if dir.bind {
		if scalarLocal(h.partner, dir.slot) {
			fmt.Fprintf(b, "\t\t%s.Locals[%d].Int = %s.Int\n", pb, dir.slot, top)
		} else {
			fmt.Fprintf(b, "\t\t%s.Locals[%d] = %s\n", pb, dir.slot, top)
		}
	}
	b.WriteString("\t\tm.Stats.DirectXfers++\n")
	fmt.Fprintf(b, "\t\t%s.Status = esplang.PReady\n\t\t%s.PC = %s.ResumePC\n\t\t%s.Pending.Int = 0\n", pb, pb, pb, pb)
	fmt.Fprintf(b, "\t\t%s = true\n\t} else {\n", h.pendPartner)
	fmt.Fprintf(b, "\t\t%s.Pending.Int = %s.Int\n\t\t%s.PendingFlags = %d\n\t\t%s.WaitChan = %d\n",
		h.pv, top, h.pv, in.B, h.pv, in.A)
	fmt.Fprintf(b, "\t\t%s.ResumePC = %d\n\t\t%s.Status = esplang.PBlockedSend\n", h.pv, pc+1, h.pv)
	fmt.Fprintf(b, "\t\tgoto %s\n\t}\n", h.blockJump())
}

// inlineRecv is the fused transcription of vm.CGRecvDirScalar plus
// unblock, with the same deferred-wake scheme as inlineSend. A miss
// pays the second MaskCheck of the baseline's alt-arm pass.
func (h *pemit) inlineRecv(b *strings.Builder, pc int, in ir.Instr, dir *direct) {
	pb := h.partnerVar
	b.WriteString("\tm.Cycles += m.Cost.MaskCheck\n\tm.Stats.MaskChecks++\n")
	fmt.Fprintf(b, "\tif %s.Status == esplang.PBlockedSend && %s.WaitChan == %d {\n", pb, pb, in.A)
	b.WriteString("\t\tm.Cycles += m.Cost.PatternNode + m.Cost.Rendezvous\n")
	b.WriteString("\t\tm.Stats.PatternNodes++\n\t\tm.Stats.Rendezvous++\n")
	// Same scalar-only reasoning as inlineSend: Int-field stores keep
	// the struct state bit-identical without pointer write barriers.
	if dir.bind {
		if scalarLocal(h.pr, dir.slot) {
			fmt.Fprintf(b, "\t\t%s.Locals[%d].Int = %s.Pending.Int\n", h.pv, dir.slot, pb)
		} else {
			fmt.Fprintf(b, "\t\t%s.Locals[%d] = %s.Pending\n", h.pv, dir.slot, pb)
		}
	}
	b.WriteString("\t\tm.Stats.DirectXfers++\n")
	fmt.Fprintf(b, "\t\t%s.Status = esplang.PReady\n\t\t%s.PC = %s.ResumePC\n\t\t%s.Pending.Int = 0\n", pb, pb, pb, pb)
	fmt.Fprintf(b, "\t\t%s = true\n\t} else {\n", h.pendPartner)
	b.WriteString("\t\tm.Cycles += m.Cost.MaskCheck\n\t\tm.Stats.MaskChecks++\n")
	fmt.Fprintf(b, "\t\t%s.WaitChan = %d\n\t\t%s.WaitPort = %d\n\t\t%s.ResumePC = %d\n\t\t%s.Status = esplang.PBlockedRecv\n",
		h.pv, in.A, h.pv, in.B, h.pv, pc+1, h.pv)
	fmt.Fprintf(b, "\t\tgoto %s\n\t}\n", h.blockJump())
}

// emitProc generates the general (per-process) step function.
func (e *emitter) emitProc(pr *ir.Proc, name string) (string, error) {
	pi, err := analyze(pr)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(m *esplang.Machine, p *esplang.ProcInst) {\n", name)
	if len(pr.Code) == 0 {
		b.WriteString("\tm.CGBadResume(p, p.PC)\n}\n\n")
		return b.String(), nil
	}
	h := &pemit{e: e, pr: pr, pi: pi, pre: "", pv: "p"}
	b.WriteString("\tvar steps int64\n\tvar ok bool\n\t_ = ok\n")
	h.slotDecls(&b)
	b.WriteString("\tdpc := p.PC\n")
	if pi.hasAlt {
		b.WriteString("dispatch:\n")
	}
	h.dispatch(&b, "dpc")
	body, err := h.body()
	if err != nil {
		return "", err
	}
	b.WriteString(body)
	b.WriteString("}\n\n")
	return b.String(), nil
}

// emitFused generates the combined function for a fused pair: both
// bodies, prefixed, with inline transfers and deferred context
// switches. The layout is
//
//	func fusedAxB(m, p) {
//	    declarations
//	    if p == pa { goto aentry }
//	    goto bentry
//	aentry: reset asteps; dispatch on pa.PC into body A
//	    body A        (block points jump to ablock)
//	ablock: deferred transfer to B, or return
//	bentry: ... body B ... bblock: ...
//	}
func (e *emitter) emitFused(a, bb *ir.Proc) (string, error) {
	pia, err := analyze(a)
	if err != nil {
		return "", err
	}
	pib, err := analyze(bb)
	if err != nil {
		return "", err
	}
	ha := &pemit{e: e, pr: a, pi: pia, pre: "a", pv: "pa",
		partner: bb, partnerVar: "pb", pendPartner: "pendB", blockLabel: "ablock"}
	hb := &pemit{e: e, pr: bb, pi: pib, pre: "b", pv: "pb",
		partner: a, partnerVar: "pa", pendPartner: "pendA", blockLabel: "bblock"}
	bodyA, err := ha.body()
	if err != nil {
		return "", err
	}
	bodyB, err := hb.body()
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "func fused%dx%d(m *esplang.Machine, p *esplang.ProcInst) {\n", a.ID, bb.ID)
	fmt.Fprintf(&b, "\tpa := m.Procs[%d]\n\tpb := m.Procs[%d]\n", a.ID, bb.ID)
	b.WriteString("\tvar asteps, bsteps int64\n\tvar adpc, bdpc int\n\tvar pendA, pendB bool\n\tvar ok bool\n")
	b.WriteString("\t_, _, _ = ok, pendA, pendB\n")
	ha.slotDecls(&b)
	hb.slotDecls(&b)
	b.WriteString("\tif p == pa {\n\t\tgoto aentry\n\t}\n\tgoto bentry\n")

	half := func(h *pemit, dpcVar, body string) {
		fmt.Fprintf(&b, "%s:\n", h.entryLbl())
		fmt.Fprintf(&b, "\t%s = 0\n\t%s = %s.PC\n", h.steps(), dpcVar, h.pv)
		h.dispatch(&b, dpcVar)
		b.WriteString(body)
		if h.blockUsed {
			fmt.Fprintf(&b, "%s:\n", h.blockLabel)
			fmt.Fprintf(&b, "\tif %s {\n\t\t%s = false\n", h.pendPartner, h.pendPartner)
			fmt.Fprintf(&b, "\t\tif !m.CGXfer(%s) {\n\t\t\treturn\n\t\t}\n", h.partnerVar)
			partnerEntry := "bentry"
			if h.pre == "b" {
				partnerEntry = "aentry"
			}
			fmt.Fprintf(&b, "\t\tgoto %s\n\t}\n\treturn\n", partnerEntry)
		}
	}
	half(ha, "adpc", bodyA)
	half(hb, "bdpc", bodyB)
	b.WriteString("}\n\n")
	return b.String(), nil
}
