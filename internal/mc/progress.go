package mc

import (
	"fmt"
	"slices"

	"esplang/internal/ir"
	"esplang/internal/vm"
)

// Non-progress cycle detection — SPIN's liveness check, standing in for
// the paper's "more complex properties, like absence of starvation, can
// be specified using LTL" (§5.1).
//
// The user designates progress channels; a communication on one of them
// is a progress step (SPIN's progress labels). A reachable cycle composed
// entirely of non-progress transitions means the system can run forever
// without ever making progress — starvation.
//
// The search builds the full state graph (exhaustive mode), then finds a
// cycle in the subgraph of non-progress edges via an iterative DFS.

// CheckProgress explores the state space exhaustively and then looks for
// a non-progress cycle. progressChannels name the channels whose
// communications count as progress.
func CheckProgress(prog *ir.Program, progressChannels []string, opts Options) *Result {
	opts.fill()
	res := &Result{Mode: Exhaustive}

	progressChan := map[int]bool{}
	for _, name := range progressChannels {
		ch := prog.ChannelByName(name)
		if ch == nil {
			res.Violation = &Violation{Fault: &vm.Fault{
				Kind: vm.FaultInternal,
				Msg:  fmt.Sprintf("no channel %q for progress labeling", name),
			}}
			return res
		}
		progressChan[ch.ID] = true
	}

	// Phase 1: enumerate the reachable state graph.
	type edge struct {
		to       int
		progress bool
		c        vm.CommChoice
	}
	// States are kept only as their state vectors (the map key doubles as
	// the stored state) and decoded into one scratch machine, so graph
	// construction doesn't retain a full machine clone per state. from
	// and via record each state's discovery edge, so a fault's path from
	// the initial state can be replayed.
	var (
		vecs  []string
		idOf  = map[string]int{}
		edges [][]edge
		from  []int
		via   []vm.CommChoice
	)

	m := newMachine(prog, opts)
	m.Settle()
	if f := m.Fault(); f != nil {
		_, _, pm := replayTrace(prog, opts, nil)
		res.Violation = &Violation{Fault: f, Postmortem: pm}
		return res
	}
	vecs = append(vecs, string(m.EncodeState()))
	idOf[vecs[0]] = 0
	edges = append(edges, nil)
	from = append(from, -1)
	via = append(via, vm.CommChoice{})

	for i := 0; i < len(vecs) && len(vecs) < opts.MaxStates; i++ {
		vec := []byte(vecs[i])
		m.DecodeState(vec)
		for _, c := range m.EnabledComms() {
			m.DecodeState(vec) // each firing starts from state i
			m.FireComm(c)
			res.Transitions++
			if f := m.Fault(); f != nil {
				// Report the replay's fault, trace and postmortem: the
				// replay numbers heap objects as a run from the initial
				// state does, which this decoded machine does not.
				var choices []vm.CommChoice
				for s := i; s > 0; s = from[s] {
					choices = append(choices, via[s])
				}
				slices.Reverse(choices)
				trace, rf, pm := replayTrace(prog, opts, append(choices, c))
				if rf == nil {
					rf = f
				}
				res.Violation = &Violation{Fault: rf, Trace: trace, Postmortem: pm}
				res.States = len(vecs)
				return res
			}
			key := m.EncodeState()
			j, ok := idOf[string(key)]
			if !ok {
				j = len(vecs)
				vecs = append(vecs, string(key))
				idOf[vecs[j]] = j
				edges = append(edges, nil)
				from = append(from, i)
				via = append(via, c)
			}
			edges[i] = append(edges[i], edge{to: j, progress: progressChan[c.Chan], c: c})
		}
	}
	res.States = len(vecs)
	if len(vecs) >= opts.MaxStates {
		res.Truncated = true
	}

	// Phase 2: a cycle using only non-progress edges. Iterative DFS with
	// colors: 0 unvisited, 1 on stack, 2 done.
	color := make([]uint8, len(vecs))
	parent := make([]int, len(vecs))
	parentEdge := make([]vm.CommChoice, len(vecs))
	for i := range parent {
		parent[i] = -1
	}
	var cycleAt = -1
	var cycleTo = -1
	var cycleC vm.CommChoice

	var stack []int
	push := func(s int) { color[s] = 1; stack = append(stack, s) }
	for root := 0; root < len(vecs) && cycleAt < 0; root++ {
		if color[root] != 0 {
			continue
		}
		push(root)
		// Explicit DFS: track per-node next-edge index.
		next := map[int]int{}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			advanced := false
			for next[s] < len(edges[s]) {
				e := edges[s][next[s]]
				next[s]++
				if e.progress {
					continue // progress edges break non-progress cycles
				}
				switch color[e.to] {
				case 0:
					parent[e.to] = s
					parentEdge[e.to] = e.c
					push(e.to)
					advanced = true
				case 1:
					cycleAt = e.to
					cycleTo = s
					cycleC = e.c
				}
				if advanced || cycleAt >= 0 {
					break
				}
			}
			if cycleAt >= 0 {
				break
			}
			if !advanced {
				color[s] = 2
				stack = stack[:len(stack)-1]
			}
		}
	}

	if cycleAt >= 0 {
		// Reconstruct the cycle portion from the DFS parents; each step is
		// built on its source state, so it carries the sender position.
		step := func(s int, c vm.CommChoice) TraceStep {
			m.DecodeState([]byte(vecs[s]))
			return newStep(m, prog, c)
		}
		var steps []TraceStep
		for s := cycleTo; s != cycleAt && s >= 0; s = parent[s] {
			steps = append(steps, step(parent[s], parentEdge[s]))
		}
		// Reverse into forward order and close the loop.
		slices.Reverse(steps)
		closing := step(cycleTo, cycleC)
		closing.Desc += "  (closes the cycle)"
		steps = append(steps, closing)
		res.Violation = &Violation{
			Fault: &vm.Fault{Kind: vm.FaultAssert,
				Msg: "non-progress cycle: the system can run forever without progress (starvation)"},
			Trace: steps,
		}
	}
	return res
}
