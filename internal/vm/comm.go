package vm

import (
	"fmt"

	"esplang/internal/ir"
	"esplang/internal/obs"
)

// ---------------------------------------------------------------------------
// Pattern matching

// match tests a receive pattern against a value without side effects,
// charging PatternNode per node examined.
func (m *Machine) match(pat *ir.Pat, v Value, recv *ProcInst) bool {
	m.chargeEv(obs.KindPattern, m.Cost.PatternNode)
	m.Stats.PatternNodes++
	switch pat.Kind {
	case ir.PatAny, ir.PatBind:
		return true
	case ir.PatConst:
		return !v.IsRef && v.Int == pat.Val
	case ir.PatSelf:
		return !v.IsRef && v.Int == int64(recv.ID)
	case ir.PatDynEq:
		return !v.IsRef && v.Int == recv.Locals[pat.Slot].Int
	case ir.PatRecord:
		if !v.IsRef || v.Ref == nil || len(v.Ref.Elems) != len(pat.Elems) {
			return false
		}
		for i, sub := range pat.Elems {
			if !m.match(sub, v.Ref.Elems[i], recv) {
				return false
			}
		}
		return true
	case ir.PatUnion:
		if !v.IsRef || v.Ref == nil || v.Ref.Tag != pat.Tag {
			return false
		}
		return m.match(pat.Elems[0], v.Ref.Elems[0], recv)
	}
	return false
}

// bindPat stores the bound components of a matched value into the
// receiver's locals. Every bound reference is linked: the receiver now
// owns it (its share of the semantic deep copy, §6.2).
func (m *Machine) bindPat(pat *ir.Pat, v Value, recv *ProcInst) {
	switch pat.Kind {
	case ir.PatBind:
		if v.IsRef && !m.link(recv, v.Ref) {
			return
		}
		recv.Locals[pat.Slot] = v
	case ir.PatRecord:
		for i, sub := range pat.Elems {
			m.bindPat(sub, v.Ref.Elems[i], recv)
		}
	case ir.PatUnion:
		m.bindPat(pat.Elems[0], v.Ref.Elems[0], recv)
	}
}

// deliver completes a transfer: it matches the receiver's port pattern
// against v and, on success, performs the reference-count dance (or a
// physical deep copy in the ablation mode) and binds the components. It
// does not change scheduling state. flags are the sender's Send flags;
// sender is the sending process id (-1 = external environment), used
// only for tracing.
func (m *Machine) deliver(v Value, flags int, sender int, recv *ProcInst, portIdx int) bool {
	port := recv.Def.Ports[portIdx]
	if !m.match(port.Pat, v, recv) {
		return false
	}
	m.chargeEv(obs.KindRendezvous, m.Cost.Rendezvous)
	m.Stats.Rendezvous++
	m.traceRendezvous(port.Chan, sender, recv.ID)

	if m.Config.ForceDeepCopy && v.IsRef {
		cp := m.deepCopy(v)
		if m.flt != nil {
			return true
		}
		m.bindPat(port.Pat, cp, recv)
		// The copy is a temporary by construction: release its root. Bound
		// components survive through the links bindPat added.
		if f := m.heap.Unlink(cp.Ref); f != nil {
			m.setFault(f, recv)
		}
		if flags&ir.FlagFreeAfter != 0 {
			if f := m.heap.Unlink(v.Ref); f != nil {
				m.setFault(f, recv)
			}
		}
		return true
	}

	m.bindPat(port.Pat, v, recv)
	if flags&ir.FlagFreeAfter != 0 && v.IsRef {
		if f := m.heap.Unlink(v.Ref); f != nil {
			m.setFault(f, recv)
		}
		m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
		m.Stats.RefOps++
	}
	return true
}

// deepCopy physically copies the object graph (preserving sharing),
// charging DeepCopyWord per word.
func (m *Machine) deepCopy(v Value) Value {
	seen := make(map[*Object]*Object)
	var cp func(v Value) Value
	cp = func(v Value) Value {
		if !v.IsRef {
			m.chargeEv(obs.KindDeepCopy, m.Cost.DeepCopyWord)
			m.Stats.DeepCopied++
			return v
		}
		if n, ok := seen[v.Ref]; ok {
			return RefVal(n)
		}
		o := v.Ref
		n := m.heap.Alloc(o.Type, len(o.Elems))
		if n == nil {
			m.fault(&Fault{Kind: FaultOutOfObjects, Msg: "deep copy failed: live-object bound exceeded"})
			return v
		}
		m.Stats.Allocs++
		m.traceAlloc(-1)
		seen[o] = n
		n.Tag = o.Tag
		for i, e := range o.Elems {
			n.Elems[i] = cp(e)
		}
		m.chargeEv(obs.KindDeepCopy, m.Cost.DeepCopyWord*int64(len(o.Elems)+1))
		m.Stats.DeepCopied += int64(len(o.Elems) + 1)
		return RefVal(n)
	}
	return cp(v)
}

// patsOverlap conservatively tests whether two runtime patterns can match
// a common value (used to decide whether to consume an external message
// for a given waiting port).
func patsOverlap(a, b *ir.Pat) bool {
	wild := func(p *ir.Pat) bool {
		return p.Kind == ir.PatAny || p.Kind == ir.PatBind || p.Kind == ir.PatDynEq || p.Kind == ir.PatSelf
	}
	if wild(a) || wild(b) {
		return true
	}
	switch a.Kind {
	case ir.PatConst:
		return b.Kind != ir.PatConst || a.Val == b.Val
	case ir.PatRecord:
		if b.Kind != ir.PatRecord || len(a.Elems) != len(b.Elems) {
			return true
		}
		for i := range a.Elems {
			if !patsOverlap(a.Elems[i], b.Elems[i]) {
				return false
			}
		}
		return true
	case ir.PatUnion:
		if b.Kind != ir.PatUnion {
			return true
		}
		if a.Tag != b.Tag {
			return false
		}
		return patsOverlap(a.Elems[0], b.Elems[0])
	}
	return true
}

// ---------------------------------------------------------------------------
// Eager rendezvous (auto mode)

// guardTrue reports whether an alt arm's guard holds for p.
func guardTrue(p *ProcInst, arm *ir.AltArm) bool {
	return arm.GuardSlot < 0 || p.Locals[arm.GuardSlot].Int != 0
}

// unblock makes p ready at pc and re-enqueues it.
func (m *Machine) unblock(p *ProcInst, pc int) {
	p.Status = PReady
	p.PC = pc
	p.Pending = Value{}
	m.unregister(p)
	m.enqueue(p.ID)
}

// commitTo, when >= 0, pins the receiver a SendCommit must deliver to
// (set by the model checker's FireComm so the chosen transition is the
// one that happens).
// It lives on the machine so clones carry it (it is always -1 when
// quiescent).

// tryCompleteSend looks for a partner for a sender whose value is already
// evaluated (plain Send, or SendCommit after an alt commit). On success
// the partner is unblocked and true is returned; the sender continues.
func (m *Machine) tryCompleteSend(s *ProcInst) bool {
	chanID := s.WaitChan
	v, flags := s.Pending, s.PendingFlags

	if m.commitTarget >= 0 {
		r := m.Procs[m.commitTarget]
		arm := m.commitArm
		m.commitTarget, m.commitArm = -1, -1
		switch {
		case r.Status == PBlockedRecv && r.WaitChan == chanID:
			if m.deliver(v, flags, s.ID, r, r.WaitPort) {
				m.unblock(r, r.ResumePC)
				s.Pending = Value{}
				return true
			}
		case r.Status == PBlockedAlt && arm >= 0:
			a := &r.Def.Alts[r.AltIdx].Arms[arm]
			if !a.IsSend && a.Chan == chanID && guardTrue(r, a) && m.deliver(v, flags, s.ID, r, a.Port) {
				m.unblock(r, a.BodyPC)
				s.Pending = Value{}
				return true
			}
		}
		// Fall through to the general scan; the commit pin is best-effort
		// when the value carries dynamic tests.
	}

	for _, idx := range m.candidates(chanID, false) {
		r := m.Procs[idx]
		if r == s {
			continue
		}
		switch r.Status {
		case PBlockedRecv:
			if r.WaitChan != chanID {
				continue
			}
			if m.deliver(v, flags, s.ID, r, r.WaitPort) {
				m.unblock(r, r.ResumePC)
				s.Pending = Value{}
				return true
			}
		case PBlockedAlt:
			def := r.Def.Alts[r.AltIdx]
			for ai := range def.Arms {
				arm := &def.Arms[ai]
				if arm.IsSend || arm.Chan != chanID || !guardTrue(r, arm) {
					continue
				}
				if m.deliver(v, flags, s.ID, r, arm.Port) {
					m.unblock(r, arm.BodyPC)
					s.Pending = Value{}
					return true
				}
			}
		}
	}

	if m.sched != nil && m.sched.internal[chanID] {
		return false // internal channel: no external binding to consult
	}
	if er := m.extR[chanID]; er != nil {
		m.chargeEv(obs.KindPoll, m.Cost.ExternalPoll)
		m.Stats.Polls++
		m.tracePoll(chanID)
		if er.Ready(m) {
			m.chargeEv(obs.KindRendezvous, m.Cost.Rendezvous)
			m.Stats.Rendezvous++
			m.traceRendezvous(chanID, s.ID, -1)
			er.Put(m, v)
			if flags&ir.FlagFreeAfter != 0 && v.IsRef {
				if f := m.heap.Unlink(v.Ref); f != nil {
					m.setFault(f, s)
				}
				m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
				m.Stats.RefOps++
			}
			s.Pending = Value{}
			return true
		}
	}
	return false
}

// tryCompleteRecv looks for a partner for a receiver about to block at a
// plain Recv. It returns true when a transfer completed and the receiver
// may continue. Committing a blocked alt's send arm returns false (the
// receiver stays blocked; the partner's SendCommit finishes the job).
func (m *Machine) tryCompleteRecv(r *ProcInst) bool {
	chanID := r.WaitChan

	// 1. Plain blocked senders: value available, deliver directly.
	for _, idx := range m.candidates(chanID, true) {
		s := m.Procs[idx]
		if s == r {
			continue
		}
		if s.Status == PBlockedSend && s.WaitChan == chanID {
			if m.deliver(s.Pending, s.PendingFlags, s.ID, r, r.WaitPort) {
				m.unblock(s, s.ResumePC)
				return true
			}
		}
	}
	// 2. Blocked alts with a send arm on this channel whose (statically
	// known) value shape can match our pattern: commit the partner.
	for _, idx := range m.candidates(chanID, true) {
		s := m.Procs[idx]
		if s == r || s.Status != PBlockedAlt {
			continue
		}
		def := s.Def.Alts[s.AltIdx]
		for ai := range def.Arms {
			arm := &def.Arms[ai]
			if !arm.IsSend || arm.Chan != chanID || !guardTrue(s, arm) {
				continue
			}
			if arm.OutPat != nil && !patsOverlap(arm.OutPat, r.Def.Ports[r.WaitPort].Pat) {
				continue
			}
			m.unblock(s, arm.EvalPC)
			return false // r blocks; the partner's SendCommit completes the transfer
		}
	}
	// 3. External writer.
	if m.sched != nil && m.sched.internal[chanID] {
		return false
	}
	if ew := m.extW[chanID]; ew != nil {
		m.chargeEv(obs.KindPoll, m.Cost.ExternalPoll)
		m.Stats.Polls++
		m.tracePoll(chanID)
		if caseIdx, ok := ew.Ready(m); ok {
			ch := m.Prog.Channels[chanID]
			if caseIdx < len(ch.Cases) && patsOverlap(ch.Cases[caseIdx].Pat, r.Def.Ports[r.WaitPort].Pat) {
				v := ew.Take(m, caseIdx)
				if m.flt != nil {
					return false
				}
				if m.deliver(v, ir.FlagFreeAfter, -1, r, r.WaitPort) {
					return true
				}
				m.setFault(&Fault{Kind: FaultNoMatchingPort,
					Msg: fmt.Sprintf("external message on channel %s does not match the waiting pattern", ch.Name)}, r)
			}
		}
	}
	return false
}

// altStep attempts to select an arm of the alt p is entering (auto mode).
// It returns (nextPC, true) when p should continue executing, or
// (0, false) when p is now parked (as a blocked alt, or as a collapsed
// blocked recv after committing a partner's send arm).
func (m *Machine) altStep(p *ProcInst) (int, bool) {
	def := p.Def.Alts[p.AltIdx]
	for ai := range def.Arms {
		arm := &def.Arms[ai]
		if !guardTrue(p, arm) {
			continue
		}
		if arm.IsSend {
			if next, ok := m.altSendArm(p, arm); ok {
				return next, true
			}
		} else {
			next, cont, parked := m.altRecvArm(p, arm)
			if cont {
				return next, true
			}
			if parked {
				return 0, false
			}
		}
		if m.flt != nil {
			return 0, false
		}
	}
	// Nothing ready: park as a blocked alt, registering every armed
	// channel (the bit-mask set of §6.1).
	p.Status = PBlockedAlt
	for ai := range def.Arms {
		arm := &def.Arms[ai]
		if !guardTrue(p, arm) {
			continue
		}
		if arm.IsSend {
			m.regSend(p, arm.Chan)
		} else {
			m.regRecv(p, arm.Chan)
		}
	}
	return 0, false
}

// altSendArm checks readiness of a send arm: a receiver is waiting on the
// channel (blocked recv, blocked alt with a matching-capable recv arm, or
// a ready external reader). On readiness the arm commits: p jumps to the
// arm's evaluation code, whose SendCommit completes the transfer (§6.1's
// postponed computation).
func (m *Machine) altSendArm(p *ProcInst, arm *ir.AltArm) (int, bool) {
	compatible := func(r *ProcInst, port int) bool {
		return arm.OutPat == nil || patsOverlap(arm.OutPat, r.Def.Ports[port].Pat)
	}
	for _, idx := range m.candidates(arm.Chan, false) {
		r := m.Procs[idx]
		if r == p {
			continue
		}
		switch r.Status {
		case PBlockedRecv:
			if r.WaitChan == arm.Chan && compatible(r, r.WaitPort) {
				return arm.EvalPC, true
			}
		case PBlockedAlt:
			rdef := r.Def.Alts[r.AltIdx]
			for ri := range rdef.Arms {
				rarm := &rdef.Arms[ri]
				if rarm.IsSend || rarm.Chan != arm.Chan || !guardTrue(r, rarm) || !compatible(r, rarm.Port) {
					continue
				}
				// The partner stays a blocked alt; the coming SendCommit
				// finds its receive arm through the general scan.
				return arm.EvalPC, true
			}
		}
	}
	if m.sched != nil && m.sched.internal[arm.Chan] {
		return 0, false
	}
	if er := m.extR[arm.Chan]; er != nil {
		m.chargeEv(obs.KindPoll, m.Cost.ExternalPoll)
		m.Stats.Polls++
		m.tracePoll(arm.Chan)
		if er.Ready(m) {
			return arm.EvalPC, true
		}
	}
	return 0, false
}

// altRecvArm checks readiness of a receive arm. Returns (nextPC, cont,
// parked): cont means the transfer completed and p continues at nextPC;
// parked means p committed a partner alt's send arm and is now a
// collapsed blocked recv.
func (m *Machine) altRecvArm(p *ProcInst, arm *ir.AltArm) (int, bool, bool) {
	// 1. Plain blocked senders.
	for _, idx := range m.candidates(arm.Chan, true) {
		s := m.Procs[idx]
		if s == p {
			continue
		}
		if s.Status == PBlockedSend && s.WaitChan == arm.Chan {
			if m.deliver(s.Pending, s.PendingFlags, s.ID, p, arm.Port) {
				m.unblock(s, s.ResumePC)
				return arm.BodyPC, true, false
			}
		}
	}
	// 2. Blocked alts with a compatible send arm on this channel: commit
	// the partner; we park as a full blocked alt and the partner's
	// SendCommit selects whichever of our receive arms matches.
	for _, idx := range m.candidates(arm.Chan, true) {
		s := m.Procs[idx]
		if s == p || s.Status != PBlockedAlt {
			continue
		}
		sdef := s.Def.Alts[s.AltIdx]
		for si := range sdef.Arms {
			sarm := &sdef.Arms[si]
			if !sarm.IsSend || sarm.Chan != arm.Chan || !guardTrue(s, sarm) {
				continue
			}
			if sarm.OutPat != nil && !patsOverlap(sarm.OutPat, p.Def.Ports[arm.Port].Pat) {
				continue
			}
			m.unblock(s, sarm.EvalPC)
			p.Status = PBlockedAlt
			return 0, false, true
		}
	}
	// 3. External writer.
	if m.sched != nil && m.sched.internal[arm.Chan] {
		return 0, false, false
	}
	if ew := m.extW[arm.Chan]; ew != nil {
		m.chargeEv(obs.KindPoll, m.Cost.ExternalPoll)
		m.Stats.Polls++
		m.tracePoll(arm.Chan)
		if caseIdx, ok := ew.Ready(m); ok {
			ch := m.Prog.Channels[arm.Chan]
			if caseIdx < len(ch.Cases) && patsOverlap(ch.Cases[caseIdx].Pat, p.Def.Ports[arm.Port].Pat) {
				v := ew.Take(m, caseIdx)
				if m.flt != nil {
					return 0, false, false
				}
				if m.deliver(v, ir.FlagFreeAfter, -1, p, arm.Port) {
					return arm.BodyPC, true, false
				}
				m.setFault(&Fault{Kind: FaultNoMatchingPort,
					Msg: fmt.Sprintf("external message on channel %s does not match the alt pattern", ch.Name)}, p)
			}
		}
	}
	return 0, false, false
}

// ---------------------------------------------------------------------------
// External polling (the idle loop)

// Poll scans external channel bindings once: it injects at most one
// message per external-writer channel into a waiting receiver, and
// completes blocked sends to ready external readers. It reports whether
// anything happened.
func (m *Machine) Poll() bool {
	injected := false

	for _, chanID := range m.extWIDs() {
		ew := m.extW[chanID]
		m.chargeEv(obs.KindPoll, m.Cost.ExternalPoll)
		m.Stats.Polls++
		m.tracePoll(chanID)
		caseIdx, ok := ew.Ready(m)
		if !ok {
			continue
		}
		ch := m.Prog.Channels[chanID]
		if caseIdx >= len(ch.Cases) {
			m.fault(&Fault{Kind: FaultInternal,
				Msg: fmt.Sprintf("external writer on %s reported case %d of %d", ch.Name, caseIdx, len(ch.Cases))})
			return injected
		}
		casePat := ch.Cases[caseIdx].Pat
		// Find a waiting receiver whose port could take this case.
		var taken bool
		var v Value
		matched := false
		scan := m.scanList(chanID, false)
		for k := 0; k < len(scan) && !matched; k++ {
			r := m.Procs[scan[k]]
			switch r.Status {
			case PBlockedRecv:
				if r.WaitChan != chanID || !patsOverlap(casePat, r.Def.Ports[r.WaitPort].Pat) {
					continue
				}
				if !taken {
					v = ew.Take(m, caseIdx)
					taken = true
					if m.flt != nil {
						return injected
					}
				}
				if m.deliver(v, ir.FlagFreeAfter, -1, r, r.WaitPort) {
					m.unblock(r, r.ResumePC)
					matched = true
				}
			case PBlockedAlt:
				def := r.Def.Alts[r.AltIdx]
				for ai := range def.Arms {
					arm := &def.Arms[ai]
					if arm.IsSend || arm.Chan != chanID || !guardTrue(r, arm) ||
						!patsOverlap(casePat, r.Def.Ports[arm.Port].Pat) {
						continue
					}
					if !taken {
						v = ew.Take(m, caseIdx)
						taken = true
						if m.flt != nil {
							return injected
						}
					}
					if m.deliver(v, ir.FlagFreeAfter, -1, r, arm.Port) {
						m.unblock(r, arm.BodyPC)
						matched = true
						break
					}
				}
			}
		}
		if taken && !matched {
			m.fault(&Fault{Kind: FaultNoMatchingPort,
				Msg: fmt.Sprintf("external message on channel %s matches no waiting receiver", ch.Name)})
			return injected
		}
		if matched {
			injected = true
		}
	}

	// Blocked senders to external readers.
	for _, chanID := range m.extRIDs() {
		er := m.extR[chanID]
		for _, pi := range m.scanList(chanID, true) {
			s := m.Procs[pi]
			switch s.Status {
			case PBlockedSend:
				if s.WaitChan != chanID {
					continue
				}
				m.chargeEv(obs.KindPoll, m.Cost.ExternalPoll)
				m.Stats.Polls++
				m.tracePoll(chanID)
				if !er.Ready(m) {
					continue
				}
				m.chargeEv(obs.KindRendezvous, m.Cost.Rendezvous)
				m.Stats.Rendezvous++
				m.traceRendezvous(chanID, s.ID, -1)
				er.Put(m, s.Pending)
				if s.PendingFlags&ir.FlagFreeAfter != 0 && s.Pending.IsRef {
					if f := m.heap.Unlink(s.Pending.Ref); f != nil {
						m.setFault(f, s)
						return injected
					}
				}
				m.unblock(s, s.ResumePC)
				injected = true
			case PBlockedAlt:
				def := s.Def.Alts[s.AltIdx]
				for ai := range def.Arms {
					arm := &def.Arms[ai]
					if !arm.IsSend || arm.Chan != chanID || !guardTrue(s, arm) {
						continue
					}
					m.chargeEv(obs.KindPoll, m.Cost.ExternalPoll)
					m.Stats.Polls++
					m.tracePoll(chanID)
					if !er.Ready(m) {
						continue
					}
					m.unblock(s, arm.EvalPC)
					injected = true
					break
				}
			}
		}
	}
	return injected
}

// extWIDs/extRIDs return the sorted external-channel ID lists. They are
// cached on the machine (invalidated by BindWriter/BindReader) so the
// idle-loop Poll does not allocate on every call. The binding slices are
// channel-indexed, so a walk yields the IDs already in ascending order.
func (m *Machine) extWIDs() []int {
	if m.extWIDsC == nil {
		m.extWIDsC = make([]int, 0, len(m.extW))
		for id, w := range m.extW {
			if w != nil {
				m.extWIDsC = append(m.extWIDsC, id)
			}
		}
	}
	return m.extWIDsC
}

func (m *Machine) extRIDs() []int {
	if m.extRIDsC == nil {
		m.extRIDsC = make([]int, 0, len(m.extR))
		for id, r := range m.extR {
			if r != nil {
				m.extRIDsC = append(m.extRIDsC, id)
			}
		}
	}
	return m.extRIDsC
}
