package vmmc

import (
	"strings"
	"testing"

	esplang "esplang"
	"esplang/internal/nic"
	"esplang/internal/vm"
)

func TestVerifyFirmwarePasses(t *testing.T) {
	res, err := VerifyFirmware(nic.DefaultConfig(), 2, esplang.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("firmware model violates: %v\ntrace:\n%s", res.Violation, traceString(res))
	}
	if res.Truncated {
		t.Error("search truncated; raise the bounds")
	}
	t.Logf("firmware model: %s", res)
}

func TestVerifyFirmwareMoreMessages(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := VerifyFirmware(nic.DefaultConfig(), 3, esplang.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("firmware model violates: %v", res.Violation)
	}
	t.Logf("firmware model (3 msgs): %s", res)
}

func TestVerifyFirmwareParallelEquivalence(t *testing.T) {
	// The §5.3 verification run under the parallel frontier search: any
	// worker count explores exactly the same state space as the
	// deterministic sequential search.
	base, err := VerifyFirmware(nic.DefaultConfig(), 2, esplang.VerifyOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Violation != nil {
		t.Fatalf("firmware model violates: %v", base.Violation)
	}
	for _, w := range []int{2, 4} {
		res, err := VerifyFirmware(nic.DefaultConfig(), 2, esplang.VerifyOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("workers=%d: firmware model violates: %v", w, res.Violation)
		}
		if res.States != base.States || res.Truncated != base.Truncated {
			t.Errorf("workers=%d: states=%d truncated=%v, want states=%d truncated=%v",
				w, res.States, res.Truncated, base.States, base.Truncated)
		}
	}
}

// TestVerifyFirmwareMsgs6Deadlock pins an open finding: with six
// messages the firmware model deadlocks after 23 transitions. Full search
// and POR, at one and two workers, all report it at the same depth, and
// each counterexample replays from the initial machine to a stuck state.
// Whether the firmware or the NETCAP=4 test driver is at fault is not
// settled; until it is, this test keeps the verdict from drifting.
func TestVerifyFirmwareMsgs6Deadlock(t *testing.T) {
	const msgs, depth = 6, 23
	cfg := nic.DefaultConfig()
	prog, err := compileModel(FirmwareModel(cfg, msgs), esplang.CompileOptions{Name: "vmmc-verify"})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []esplang.VerifyOptions{{Reduction: esplang.NoReduction}, {Reduction: esplang.AmpleSets}} {
		red := opts.Reduction
		for _, w := range []int{1, 2} {
			opts.Workers = w
			res, err := VerifyFirmware(cfg, msgs, opts)
			if err != nil {
				t.Fatal(err)
			}
			v := res.Violation
			if v == nil || !v.Deadlock {
				t.Fatalf("%v, workers=%d: %v, want a deadlock", red, w, res)
			}
			if len(v.Trace) != depth {
				t.Errorf("%v, workers=%d: deadlock after %d transitions, want %d", red, w, len(v.Trace), depth)
			}
			m := prog.Machine(esplang.MachineConfig{Manual: true, MaxLiveObjects: 64})
			m.Cost = vm.ZeroCostModel()
			m.Settle()
			choices := make([]vm.CommChoice, len(v.Trace))
			for i, st := range v.Trace {
				choices[i] = st.Choice
			}
			if f := m.ReplayComms(choices); f != nil {
				t.Fatalf("%v, workers=%d: replay faults: %v", red, w, f)
			}
			if !m.Deadlocked() || m.AtRest() {
				t.Errorf("%v, workers=%d: the replayed counterexample does not end stuck", red, w)
			}
		}
	}
}

func traceString(res *esplang.VerifyResult) string {
	if res.Violation == nil {
		return ""
	}
	s := ""
	for _, st := range res.Violation.Trace {
		s += "  " + st.Desc + "\n"
	}
	return s
}

func TestVerifyRetransCorrect(t *testing.T) {
	res, err := VerifyRetrans(2, 3, false, esplang.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("correct protocol violates: %v\ntrace:\n%s", res.Violation, traceString(res))
	}
	t.Logf("retransmission protocol: %s", res)
}

func TestVerifyRetransSeededBugFound(t *testing.T) {
	// The §5.3 development story: the checker finds the off-by-one rewind
	// that a testbed run would hit only on rare corruption timing.
	res, err := VerifyRetrans(2, 3, true, esplang.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("seeded protocol bug not found")
	}
	if len(res.Violation.Trace) == 0 {
		t.Error("no counterexample trace")
	}
	t.Logf("seeded retrans bug: %v", res.Violation)
}

func TestVerifyMemSafetyClean(t *testing.T) {
	res, err := VerifyMemSafety(BugNone, esplang.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("clean model violates: %v", res.Violation)
	}
	if res.States < 10 {
		t.Errorf("suspiciously few states: %d", res.States)
	}
	t.Logf("memory-safety model (clean): %s", res)
}

func TestVerifyMemSafetySeededBugsAllFound(t *testing.T) {
	// §5.3: "The verifier was able to find the bug in every case."
	wantKind := map[MemBug]vm.FaultKind{
		BugLeak:         vm.FaultOutOfObjects,
		BugUseAfterFree: vm.FaultUseAfterFree,
		BugDoubleFree:   vm.FaultDoubleFree,
	}
	for bug, kind := range wantKind {
		t.Run(bug.String(), func(t *testing.T) {
			res, err := VerifyMemSafety(bug, esplang.VerifyOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil || res.Violation.Fault == nil {
				t.Fatalf("seeded %s not found", bug)
			}
			if res.Violation.Fault.Kind != kind {
				t.Errorf("found %v, want %v", res.Violation.Fault.Kind, kind)
			}
		})
	}
}

func TestVerifyBitstateMode(t *testing.T) {
	// The §5.1 bit-state mode on the firmware model: partial but cheap.
	prog, err := esplang.Compile(FirmwareModel(nic.DefaultConfig(), 2), esplang.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := prog.Verify(esplang.VerifyOptions{
		Mode: esplang.BitState, BitstateBits: 20, EndRecvOK: true, MaxLiveObjects: 64})
	if res.Violation != nil {
		t.Fatalf("bitstate run violates: %v", res.Violation)
	}
	if res.MemBytes != 1<<20/8 {
		t.Errorf("bitstate memory = %d bytes", res.MemBytes)
	}
}

func TestVerifySimulationMode(t *testing.T) {
	// The §5.1/§5.3 development mode: random walks through the firmware.
	prog, err := esplang.Compile(FirmwareModel(nic.DefaultConfig(), 2), esplang.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := prog.Verify(esplang.VerifyOptions{
		Mode: esplang.Simulation, Seed: 1, SimRuns: 20, EndRecvOK: true, MaxLiveObjects: 64})
	if res.Violation != nil {
		t.Fatalf("simulation run violates: %v", res.Violation)
	}
}

func TestVerifyTwoNodeModel(t *testing.T) {
	// §5.2: two copies of the firmware communicating over a cross-wired
	// network — the end-to-end sliding-window protocol explored
	// exhaustively, with in-order completion asserted at the receiver.
	res, err := VerifyTwoNode(nic.DefaultConfig(), 2, esplang.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("two-node model violates: %v\ntrace:\n%s", res.Violation, traceString(res))
	}
	if res.Truncated {
		t.Error("search truncated")
	}
	t.Logf("two-node model: %s", res)
}

func TestTwoNodeModelDetectsSeededOrderBug(t *testing.T) {
	// Mutating the wire to swap the first two data packets must trip the
	// receiver's in-order assertion — evidence the two-node model really
	// exercises the ordering property.
	src := TwoNodeModel(nic.DefaultConfig(), 2)
	bad := strings.Replace(src,
		"out( netRecvC_1, { seq, ak, isack, msgid, raddr, off, size, total, last, 0});",
		`if (seq == 1 && isack == 0) {
            in( netSendC_0, { $seq2, $ak2, $isack2, $msgid2, $raddr2, $off2, $size2, $total2, $last2, $dest2});
            out( netRecvC_1, { seq2, ak2, isack2, msgid2, raddr2, off2, size2, total2, last2, 0});
            out( netRecvC_1, { seq, ak, isack, msgid, raddr, off, size, total, last, 0});
        } else {
            out( netRecvC_1, { seq, ak, isack, msgid, raddr, off, size, total, last, 0});
        }`, 1)
	if bad == src {
		t.Fatal("mutation did not apply")
	}
	prog, err := esplang.Compile(bad, esplang.CompileOptions{})
	if err != nil {
		t.Fatalf("mutated model does not compile: %v", err)
	}
	res := prog.Verify(esplang.VerifyOptions{EndRecvOK: true, MaxLiveObjects: 64})
	if res.Violation == nil {
		t.Fatal("packet reordering not detected")
	}
	t.Logf("reordering found: %v", res.Violation)
}
