package mc_test

import (
	"path/filepath"
	"testing"

	esplang "esplang"
	"esplang/internal/mc"
	"esplang/internal/vm"
	"esplang/internal/vmmc"
)

// sameViolation compares two results' violations byte for byte: fault
// kind, location and message, the counterexample trace, and the
// postmortem.
func sameViolation(t *testing.T, got, want *mc.Result) {
	t.Helper()
	if (got.Violation == nil) != (want.Violation == nil) {
		t.Fatalf("violation %v, want %v", got.Violation, want.Violation)
	}
	if want.Violation == nil {
		return
	}
	gv, wv := got.Violation, want.Violation
	if gv.Deadlock != wv.Deadlock || (gv.Fault == nil) != (wv.Fault == nil) {
		t.Fatalf("verdict %v, want %v", gv, wv)
	}
	if wv.Fault != nil {
		if g, w := gv.Fault.Error(), wv.Fault.Error(); g != w {
			t.Errorf("fault text differs:\n got %s\nwant %s", g, w)
		}
		if gv.Fault.File != wv.Fault.File {
			t.Errorf("fault file %q, want %q", gv.Fault.File, wv.Fault.File)
		}
	}
	if len(gv.Trace) != len(wv.Trace) {
		t.Fatalf("trace length %d, want %d", len(gv.Trace), len(wv.Trace))
	}
	for i := range wv.Trace {
		if gv.Trace[i] != wv.Trace[i] {
			t.Errorf("trace step %d: %+v, want %+v", i, gv.Trace[i], wv.Trace[i])
		}
	}
	if gv.Postmortem != wv.Postmortem {
		t.Errorf("postmortems differ:\n got %s\nwant %s", gv.Postmortem, wv.Postmortem)
	}
}

// TestFaultTextFromReplay: the state vector renumbers heap objects, so a
// fault raised on a search machine that decoded its state names objects
// differently from a run of the same path. The reported fault comes from
// the counterexample replay, so the fused search's fault kind, location
// and message match the baseline-engine oracle (which never decodes)
// byte for byte — on the seeded memory-safety bugs of the VMMC model and
// on the fuzzer's regression corpus.
func TestFaultTextFromReplay(t *testing.T) {
	engines := func(t *testing.T, verify func(esplang.VerifyOptions) *mc.Result) {
		t.Helper()
		base := esplang.VerifyOptions{Workers: 1, MaxStates: 4000, MaxDepth: 4000}
		oracleOpts := base
		oracleOpts.Engine = vm.EngineBaseline
		want := verify(oracleOpts)
		sameViolation(t, verify(base), want)
	}
	for _, bug := range []vmmc.MemBug{vmmc.BugLeak, vmmc.BugUseAfterFree, vmmc.BugDoubleFree} {
		t.Run("memsafety-"+bug.String(), func(t *testing.T) {
			engines(t, func(o esplang.VerifyOptions) *mc.Result {
				res, err := vmmc.VerifyMemSafety(bug, o)
				if err != nil {
					t.Fatal(err)
				}
				if res.Violation == nil {
					t.Fatal("seeded bug not found")
				}
				return res
			})
		})
	}
	files, err := filepath.Glob("../../testdata/fuzz/*.esp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz regression corpus: %v", err)
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			prog, err := esplang.CompileFile(path, esplang.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			engines(t, prog.Verify)
		})
	}
}

// TestArenaSetSmallSearchMemory: a search of a few hundred states must
// not pay for large arenas up front — every shard starts with a small
// chunk and grows on demand.
func TestArenaSetSmallSearchMemory(t *testing.T) {
	for _, red := range []mc.Reduction{mc.NoReduction, mc.AmpleSets} {
		res, err := vmmc.VerifyMemSafety(vmmc.BugNone, esplang.VerifyOptions{Workers: 2, Reduction: red})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil || res.States != 161 {
			t.Fatalf("%v: %v, want a clean 161-state search", red, res)
		}
		if res.MemBytes > 512<<10 {
			t.Errorf("%v: visited set holds %d bytes for %d states, want ≤ 512 KiB", red, res.MemBytes, res.States)
		}
	}
}

// TestPORAllocsPerState: on a model the reduction cannot shrink
// (VerifyMemSafety: 161 states either way), choosing ample sets must not
// add allocations per state — the closure and partition run in
// worker-local scratch.
func TestPORAllocsPerState(t *testing.T) {
	perState := func(red mc.Reduction) float64 {
		var states int
		allocs := testing.AllocsPerRun(3, func() {
			res, err := vmmc.VerifyMemSafety(vmmc.BugNone, esplang.VerifyOptions{Workers: 1, Reduction: red})
			if err != nil {
				t.Fatal(err)
			}
			states = res.States
		})
		return allocs / float64(states)
	}
	full, por := perState(mc.NoReduction), perState(mc.AmpleSets)
	t.Logf("allocations per state: full %.2f, POR %.2f", full, por)
	if por > full+0.25 {
		t.Errorf("POR allocates %.2f per state, full search %.2f: the reduction's bookkeeping allocates", por, full)
	}
}
