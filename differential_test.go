package esplang_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	esplang "esplang"
	"esplang/internal/ir"
	"esplang/internal/nic"
	"esplang/internal/obs"
	"esplang/internal/types"
	"esplang/internal/vm"
	"esplang/internal/vmmc"
)

// Differential tests for the interpreters: the fused engine
// (superinstructions, static rendezvous scheduling, direct transfers,
// heap recycling) must be observationally indistinguishable from the
// baseline interpreter — same outputs, same faults (down to file:line),
// same cycle meter, same event statistics, same trace bytes, and same
// model-checker verdicts and state counts. Stats.DirectXfers is the one
// deliberate exception: it is a diagnostic counter only the fast tiers
// increment (charging zero cycles), so comparisons zero it first.

var allEngines = []esplang.Engine{esplang.EngineBaseline, esplang.EngineFused}

// sameAcrossEngines renders one observation per engine and reports every
// engine whose rendering differs from the baseline's.
func sameAcrossEngines(t *testing.T, what string, render func(esplang.Engine) string) {
	t.Helper()
	base := render(allEngines[0])
	for _, engine := range allEngines[1:] {
		if got := render(engine); got != base {
			t.Errorf("%s diverge:\n--- baseline ---\n%s\n--- %v ---\n%s", what, base, engine, got)
		}
	}
}

// engineRun executes path with the canonical inputs under one engine and
// renders everything observable plus the cycle/statistics counters.
func engineRun(t *testing.T, path string, engine esplang.Engine) string {
	t.Helper()
	prog, err := esplang.CompileFile(path, esplang.CompileOptions{VerifyIR: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := prog.Machine(esplang.MachineConfig{MaxLiveObjects: 64, Engine: engine})
	readers := feedInputs(t, prog, m)
	m.Run()

	var b bytes.Buffer
	if f := m.Fault(); f != nil {
		fmt.Fprintf(&b, "fault: %v\n", f)
	} else {
		b.WriteString("fault: none\n")
	}
	st := m.Stats
	st.DirectXfers = 0 // diagnostic-only; see the package comment above
	fmt.Fprintf(&b, "cycles: %d\nstats: %+v\n", m.Cycles, st)
	for _, ch := range prog.IR.Channels {
		r, ok := readers[ch.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%s:", ch.Name)
		for _, v := range r.Values {
			b.WriteString(" ")
			b.WriteString(renderSnap(v))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestEngineDifferentialTestdata: every sample program behaves
// identically — outputs, fault state, cycles, and statistics — under
// both engines.
func TestEngineDifferentialTestdata(t *testing.T) {
	files, err := filepath.Glob("testdata/*.esp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			sameAcrossEngines(t, "runs", func(engine esplang.Engine) string { return engineRun(t, f, engine) })
		})
	}
}

// faultPrograms trip one runtime fault each: arithmetic, assert, heap
// (use after free, double unlink, bad array sizes), index and union-tag
// faults, several inside code the fuser groups into superinstructions.
// Every tier must materialize the exact baseline fault — kind, message,
// PC, and source position.
var faultPrograms = []struct{ name, src string }{
	{"div-by-zero", `
channel outC: int external reader
process p {
    $a = 10;
    $b = 0;
    $c = a / b;
    out( outC, c);
}`},
	{"mod-by-zero", `
channel outC: int external reader
process p {
    $a = 10;
    $b = 0;
    out( outC, a % b);
}`},
	{"assert-fail", `
channel outC: int external reader
process p {
    $n = 3;
    $m = n + 4;
    assert( m == 0);
    out( outC, m);
}`},
	{"use-after-free", `
channel outC: int external reader
process p {
    $d: array of int = { 4 -> 7};
    unlink( d);
    out( outC, d[0]);
}`},
	{"double-unlink", `
channel outC: int external reader
process p {
    $d: array of int = { 4 -> 7};
    unlink( d);
    unlink( d);
    out( outC, 1);
}`},
	{"index-read-oob", `
channel outC: int external reader
process p {
    $d: array of int = { 4 -> 7};
    $i = 4;
    out( outC, d[i]);
}`},
	{"index-write-negative", `
channel outC: int external reader
process p {
    $d: #array of int = #{ 4 -> 0};
    $i = 0 - 1;
    d[i] = 5;
    out( outC, d[0]);
}`},
	{"array-size-negative", `
channel outC: int external reader
process p {
    $n = 0 - 2;
    $d: array of int = { n -> 0};
    out( outC, d[0]);
}`},
	{"array-size-limit", `
channel outC: int external reader
process p {
    $d: array of int = { 1000000000 -> 0};
    out( outC, d[0]);
}`},
	{"union-tag-mismatch", `
type u = union of { a: int, b: int }
channel outC: int external reader
process p {
    $v: u = { b |> 3};
    { a |> $x} = v;
    out( outC, x);
}`},
}

// TestEngineDifferentialFaults: fault identity across engines, including
// the source file:line the fault reports.
func TestEngineDifferentialFaults(t *testing.T) {
	for _, tc := range faultPrograms {
		t.Run(tc.name, func(t *testing.T) {
			sameAcrossEngines(t, "fault outcomes", func(engine esplang.Engine) string {
				prog, err := esplang.Compile(tc.src, esplang.CompileOptions{File: tc.name + ".esp"})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				m := prog.Machine(esplang.MachineConfig{Engine: engine})
				if err := m.BindReader("outC", &esplang.CollectReader{}); err != nil {
					t.Fatal(err)
				}
				m.Run()
				f := m.Fault()
				if f == nil {
					t.Fatalf("engine %v: expected a fault", engine)
				}
				if f.Location() == "" {
					t.Fatalf("engine %v: fault carries no source location: %v", engine, f)
				}
				st := m.Stats
				st.DirectXfers = 0
				return fmt.Sprintf("fault=%+v cycles=%d stats=%+v", *f, m.Cycles, st)
			})
		})
	}
}

// TestEngineDifferentialStepBudget: the step budget can cross a fused
// group at any component. Sweeping it over every sample program, the
// fused engine must reproduce the baseline's fault, meter, statistics and
// live heap at each crossing, and at least one crossing must fall on the
// Send half of an fxferrec group, whose NewRecord half the baseline has
// already completed when it faults.
//
// The canonical inputs cannot reach an fxferrec within a small budget:
// appendixb's pageTable consumes both updates in its first quantum, so it
// faults first. The sweep therefore also runs appendixb with a single
// send request that arrives once every process has blocked, which gives
// the firmware pipeline the short quanta that cross its transfers.
func TestEngineDifferentialStepBudget(t *testing.T) {
	files, err := filepath.Glob("testdata/*.esp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	type sweep struct {
		name string
		prog *esplang.Program
		run  func(*esplang.Program, *esplang.Machine)
	}
	var sweeps []sweep
	for _, f := range files {
		prog, err := esplang.CompileFile(f, esplang.CompileOptions{VerifyIR: true})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		sweeps = append(sweeps, sweep{filepath.Base(f), prog, func(prog *esplang.Program, m *esplang.Machine) {
			feedInputs(t, prog, m)
			m.Run()
		}})
		if filepath.Base(f) == "appendixb.esp" {
			sweeps = append(sweeps, sweep{"appendixb.esp/late-send", prog, lateSendRequest(t)})
		}
	}
	faulted, xferSendHalf := 0, 0
	for _, sw := range sweeps {
		for budget := int64(1); budget <= 80; budget++ {
			sameAcrossEngines(t, fmt.Sprintf("%s at StepBudget %d", sw.name, budget), func(engine esplang.Engine) string {
				m := sw.prog.Machine(esplang.MachineConfig{MaxLiveObjects: 64, Engine: engine, StepBudget: budget})
				sw.run(sw.prog, m)
				flt := m.Fault()
				if engine == esplang.EngineFused && flt != nil && flt.Kind == vm.FaultStep {
					faulted++
					if onXferSend(sw.prog, flt) {
						xferSendHalf++
					}
				}
				st := m.Stats
				st.DirectXfers = 0
				return fmt.Sprintf("fault=%v cycles=%d stats=%+v live=%d", flt, m.Cycles, st, m.Heap().Live())
			})
		}
	}
	t.Logf("%d step-budget faults, %d on the Send half of an fxferrec", faulted, xferSendHalf)
	if xferSendHalf == 0 {
		t.Error("no budget fell on the Send half of an fxferrec group; the sweep no longer covers that crossing")
	}
}

// lateSendRequest runs appendixb until every process blocks, then
// delivers one send request (dest 9, vAddr 3, size 4) and runs on.
func lateSendRequest(t *testing.T) func(*esplang.Program, *esplang.Machine) {
	return func(prog *esplang.Program, m *esplang.Machine) {
		if err := m.BindReader("SM2C", &esplang.CollectReader{}); err != nil {
			t.Fatal(err)
		}
		w := &esplang.QueueWriter{}
		if err := m.BindWriter("userReqC", w); err != nil {
			t.Fatal(err)
		}
		m.Run()
		var userT *types.Type
		for _, ch := range prog.IR.Channels {
			if ch.Name == "userReqC" {
				userT = ch.Elem
			}
		}
		w.Push(0, func(mm *esplang.Machine) esplang.Value {
			return mm.NewUnionV(userT, 0, mm.NewRecordV(userT.Fields[0].Type,
				esplang.IntVal(9), esplang.IntVal(3), esplang.IntVal(4)))
		})
		m.Run()
	}
}

// onXferSend reports whether the fault pc is the Send component of an
// FXferRec group in the faulting process's fused translation.
func onXferSend(prog *esplang.Program, f *esplang.Fault) bool {
	for i, proc := range prog.IR.Procs {
		if proc.Name != f.Proc {
			continue
		}
		for _, fi := range prog.IR.Fused[i].Code {
			if fi.Op == ir.FXferRec && int(fi.Base)+1 == f.PC {
				return true
			}
		}
	}
	return false
}

// TestEngineDifferentialTraces: the Chrome trace rendered from a full
// event recorder (timestamps derived from the cycle meter) is
// byte-identical across engines.
func TestEngineDifferentialTraces(t *testing.T) {
	sameAcrossEngines(t, "trace streams", func(engine esplang.Engine) string {
		prog, err := esplang.CompileFile("testdata/add5.esp", esplang.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m := prog.Machine(esplang.MachineConfig{Engine: engine})
		rec := obs.NewEventLog()
		m.SetRecorder(rec)
		w := &esplang.QueueWriter{}
		for _, v := range []int64{1, 10, 37} {
			v := v
			w.Push(0, func(*esplang.Machine) esplang.Value { return esplang.IntVal(v) })
		}
		if err := m.BindWriter("inC", w); err != nil {
			t.Fatal(err)
		}
		if err := m.BindReader("outC", &esplang.CollectReader{}); err != nil {
			t.Fatal(err)
		}
		m.Run()
		rec.Sync()
		var trace bytes.Buffer
		if err := rec.WriteChrome(&trace, 0); err != nil {
			t.Fatal(err)
		}
		return trace.String()
	})
}

// TestEngineDifferentialVerify: the model checker visits the same state
// space under either engine — identical verdict, state count, and
// transition count (Workers: 1 makes the counts deterministic).
func TestEngineDifferentialVerify(t *testing.T) {
	prog, err := esplang.CompileFile("testdata/pipeline.esp", esplang.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameAcrossEngines(t, "search results", func(engine esplang.Engine) string {
		res := prog.Verify(esplang.VerifyOptions{Workers: 1, Engine: engine})
		if res.Violation != nil {
			t.Fatalf("engine %v: unexpected violation: %v", engine, res.Violation)
		}
		return fmt.Sprintf("states=%d transitions=%d truncated=%v", res.States, res.Transitions, res.Truncated)
	})
}

// TestEngineDifferentialVerifySeededBugs: every seeded memory bug and the
// buggy retransmission protocol are found under both engines, with the
// same counterexample fault and (deterministic) state count.
func TestEngineDifferentialVerifySeededBugs(t *testing.T) {
	for _, bug := range []vmmc.MemBug{vmmc.BugNone, vmmc.BugLeak, vmmc.BugUseAfterFree, vmmc.BugDoubleFree} {
		t.Run(bug.String(), func(t *testing.T) {
			sameAcrossEngines(t, "verdicts", func(engine esplang.Engine) string {
				res, err := vmmc.VerifyMemSafety(bug, esplang.VerifyOptions{Workers: 1, Engine: engine})
				if err != nil {
					t.Fatal(err)
				}
				viol := "none"
				if res.Violation != nil {
					viol = res.Violation.Fault.Error()
				}
				return fmt.Sprintf("states=%d violation=%s", res.States, viol)
			})
		})
	}
	t.Run("retrans-buggy", func(t *testing.T) {
		sameAcrossEngines(t, "verdicts", func(engine esplang.Engine) string {
			res, err := vmmc.VerifyRetrans(2, 3, true, esplang.VerifyOptions{Workers: 1, Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatalf("engine %v: seeded retransmission bug not found", engine)
			}
			return fmt.Sprintf("states=%d fault=%s", res.States, res.Violation.Fault.Error())
		})
	})
}

// TestEngineDifferentialVMMC: the full firmware simulation — VM bridged
// to the simulated NIC — reports identical one-way latency under both
// engines, because both charge the same cycle cost model.
func TestEngineDifferentialVMMC(t *testing.T) {
	cfg := nic.DefaultConfig()
	defer func(prev esplang.Engine) { vmmc.Engine = prev }(vmmc.Engine)
	sameAcrossEngines(t, "firmware latencies", func(engine esplang.Engine) string {
		vmmc.Engine = engine
		v, err := vmmc.PingPong(vmmc.ESP, cfg, 64, 5)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v ns", v)
	})
}

// TestEngineProfilerParity: installing a profiler routes execution
// through the baseline loop (the per-instruction decomposition cannot be
// charged from fused groups), so the profile and counters of a
// fused-configured machine match a baseline machine exactly.
func TestEngineProfilerParity(t *testing.T) {
	sameAcrossEngines(t, "profiles", func(engine esplang.Engine) string {
		prog, err := esplang.CompileFile("testdata/pipeline.esp", esplang.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m := prog.Machine(esplang.MachineConfig{Engine: engine})
		prof := obs.NewProfiler("pipeline.esp")
		m.SetProfiler(prof)
		m.Run()
		if f := m.Fault(); f != nil {
			t.Fatalf("engine %v: %v", engine, f)
		}
		return fmt.Sprintf("cycles=%d stats=%+v\n%s", m.Cycles, m.Stats, prof.Report(prog.Source, 20))
	})
}

// TestEngineDifferentialTracesTestdata: the full recorded event stream
// of every sample program, rendered as a Chrome trace — timestamps
// derived from the cycle meter — is
// byte-identical between the baseline and fused engines, so the
// static schedule's fast paths (direct transfers, narrowed scans, heap
// recycling) are invisible to every observer.
func TestEngineDifferentialTracesTestdata(t *testing.T) {
	files, err := filepath.Glob("testdata/*.esp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			sameAcrossEngines(t, "trace streams", func(engine esplang.Engine) string {
				prog, err := esplang.CompileFile(f, esplang.CompileOptions{})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				m := prog.Machine(esplang.MachineConfig{MaxLiveObjects: 64, Engine: engine})
				rec := obs.NewEventLog()
				m.SetRecorder(rec)
				feedInputs(t, prog, m)
				m.Run()
				rec.Sync()
				var trace bytes.Buffer
				if err := rec.WriteChrome(&trace, 0); err != nil {
					t.Fatal(err)
				}
				return trace.String()
			})
		})
	}
}

// TestEngineDifferentialVerifyParallel: with several model-checker
// workers racing over the frontier, the fused engine still
// explores exactly the baseline's state space (the exhaustive search's
// state count is worker-count-invariant).
func TestEngineDifferentialVerifyParallel(t *testing.T) {
	prog, err := esplang.CompileFile("testdata/pipeline.esp", esplang.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameAcrossEngines(t, "parallel searches", func(engine esplang.Engine) string {
		res := prog.Verify(esplang.VerifyOptions{Workers: 4, Engine: engine})
		if res.Violation != nil {
			t.Fatalf("engine %v: unexpected violation: %v", engine, res.Violation)
		}
		return fmt.Sprintf("states=%d transitions=%d", res.States, res.Transitions)
	})
}
