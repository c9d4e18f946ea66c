package mc_test

import (
	"strings"
	"testing"

	esplang "esplang"
	"esplang/internal/mc"
	"esplang/internal/vm"
	"esplang/internal/vmmc"
)

// chatterSrc: two processes ping-pong forever on chatC while a worker
// starves waiting for workC — the system has an infinite run that never
// touches workC.
const chatterSrc = `
channel chatC: int
channel chatBackC: int
channel workC: int
process a {
    while (true) {
        out( chatC, 1);
        in( chatBackC, $x);
    }
}
process b {
    while (true) {
        in( chatC, $y);
        out( chatBackC, y);
    }
}
process worker {
    while (true) {
        in( workC, $w);
    }
}
`

func TestNonProgressCycleFound(t *testing.T) {
	prog := compileSrc(t, chatterSrc)
	res := mc.CheckProgress(prog, []string{"workC"}, mc.Options{})
	if res.Violation == nil {
		t.Fatal("starvation cycle not found")
	}
	if len(res.Violation.Trace) == 0 {
		t.Error("no cycle trace")
	}
	joined := ""
	for i, s := range res.Violation.Trace {
		joined += s.Desc + "\n"
		if !s.Pos.IsValid() || s.Choice.Sender == s.Choice.Receiver {
			t.Errorf("cycle step %d is not a full step: %+v", i, s)
		}
	}
	if !strings.Contains(joined, "chatC") && !strings.Contains(joined, "chatBackC") {
		t.Errorf("cycle trace does not mention the chatter channels:\n%s", joined)
	}
}

func TestProgressOnChatterClears(t *testing.T) {
	// Declaring the chatter itself as progress: every cycle now contains
	// a progress step, so no violation.
	prog := compileSrc(t, chatterSrc)
	res := mc.CheckProgress(prog, []string{"chatC"}, mc.Options{})
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	if res.States < 2 {
		t.Errorf("suspiciously few states: %d", res.States)
	}
}

func TestProgressServerLoop(t *testing.T) {
	// A served request loop: progress on the reply channel holds (every
	// cycle passes through a reply).
	prog := compileSrc(t, `
channel req: int
channel rep: int
process server {
    while (true) {
        in( req, $v);
        out( rep, v + 1);
    }
}
process client {
    while (true) {
        out( req, 1);
        in( rep, $r);
    }
}
`)
	res := mc.CheckProgress(prog, []string{"rep"}, mc.Options{})
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	// With an unrelated channel as the progress label, the whole loop is
	// a non-progress cycle.
	prog2 := compileSrc(t, `
channel req: int
channel rep: int
channel never: int
process server {
    while (true) {
        in( req, $v);
        out( rep, v + 1);
    }
}
process client {
    while (true) {
        out( req, 1);
        in( rep, $r);
    }
}
process idle {
    in( never, $x);
}
`)
	res2 := mc.CheckProgress(prog2, []string{"never"}, mc.Options{})
	if res2.Violation == nil {
		t.Fatal("non-progress loop not found")
	}
}

func TestProgressUnknownChannel(t *testing.T) {
	prog := compileSrc(t, chatterSrc)
	res := mc.CheckProgress(prog, []string{"nosuch"}, mc.Options{})
	if res.Violation == nil || res.Violation.Fault == nil {
		t.Fatal("unknown progress channel not reported")
	}
}

func TestProgressTerminatingSystemHasNoCycle(t *testing.T) {
	prog := compileSrc(t, `
channel c: int
process p { $i = 0; while (i < 3) { out( c, i); i = i + 1; } }
process q { $n = 0; while (n < 3) { in( c, $v); n = n + 1; } }
`)
	res := mc.CheckProgress(prog, []string{}, mc.Options{})
	if res.Violation != nil {
		t.Fatalf("terminating system reported a cycle: %v", res.Violation)
	}
}

// TestProgressFaultCounterexample: a fault met while the progress check
// builds its state graph is reported as the exhaustive search reports
// one — with the counterexample path from the initial state and a
// postmortem, and with the fault text of a run along that path (objects
// numbered as a fresh machine numbers them, not as a decoded state
// vector does).
func TestProgressFaultCounterexample(t *testing.T) {
	for _, bug := range []vmmc.MemBug{vmmc.BugLeak, vmmc.BugUseAfterFree, vmmc.BugDoubleFree} {
		t.Run(bug.String(), func(t *testing.T) {
			prog, err := esplang.Compile(vmmc.MemSafetyModel(bug), esplang.CompileOptions{Name: "memsafety", File: "memsafety.esp"})
			if err != nil {
				t.Fatal(err)
			}
			res := mc.CheckProgress(prog.IR, []string{"fwdC"}, mc.Options{MaxLiveObjects: 8, MaxStates: 4000})
			v := res.Violation
			if v == nil || v.Fault == nil {
				t.Fatalf("seeded bug not found: %v", v)
			}
			if len(v.Trace) == 0 {
				t.Fatal("fault reported without a counterexample trace")
			}
			if !strings.HasPrefix(v.Postmortem, "# esp flight recorder") {
				t.Errorf("fault reported without a postmortem: %q", v.Postmortem)
			}
			m := prog.Machine(esplang.MachineConfig{Manual: true, MaxLiveObjects: 8})
			m.Cost = vm.ZeroCostModel()
			m.Settle()
			choices := make([]vm.CommChoice, len(v.Trace))
			for i, st := range v.Trace {
				choices[i] = st.Choice
			}
			if f := m.ReplayComms(choices); f == nil || f.Error() != v.Fault.Error() {
				t.Errorf("replaying the trace faults with %v, want %v", f, v.Fault)
			}
		})
	}
}
